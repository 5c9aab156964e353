//! Multi-link network simulation on the [`hpfq_events`] engine.
//!
//! A [`Network`] owns any number of output links, each scheduled by its own
//! H-PFQ [`Hierarchy`], plus a set of flows with **static routes**: an
//! ordered list of `(link, leaf)` hops. A packet is enqueued at its first
//! hop, transmitted by that link's hierarchy, propagates for the hop's
//! delay, is re-enqueued at the next hop, and so on; after the last hop it
//! is delivered back to its source (ACK clocking for closed-loop sources).
//!
//! A one-link network is [`Network::single_link`] with [`Route::single`]
//! or [`Route::open_loop`] routes.
//!
//! The event loop is [`hpfq_events::Engine`], a deterministic
//! `(time, minor, seq)` event core. Event model (ties fire in a
//! content-derived order, so runs are deterministic):
//!
//! * `Wake(source)` — a source timer fires; emitted packets are enqueued at
//!   the first hop's leaf (subject to its drop-tail buffer) and the link
//!   starts transmitting if idle. The source index is all there is to a
//!   wake, so it is queued as an engine *timer*
//!   ([`hpfq_events::Engine::with_timers`]): sixteen bytes in the
//!   event heap and no arena slot. Every other event carries a packet or a
//!   command and takes a slot.
//! * link completion — the link finishes a packet (not a queued event:
//!   the link holds its one pending completion time, and the loop takes
//!   whichever of it and the queue head is earlier): the hierarchy runs
//!   RESET-PATH / RESTART-NODE (pre-selecting the next head), the packet
//!   propagates to its next hop (`Arrive`) or, after the last, the service
//!   is recorded and a `Deliver` is scheduled after the hop's delay if the
//!   source wants it; the next transmission starts immediately (work
//!   conservation).
//! * `Deliver(source, pkt)` — the packet reached its destination;
//!   closed-loop sources (TCP) use this for ACK clocking. Never scheduled
//!   for sources whose [`Source::wants_delivery`] is `false`.
//! * `Command` — a pre-scheduled [`SimCommand`] fires: a link rate changes
//!   (possibly to 0 — an outage), or a flow joins or leaves mid-run
//!   (churn).
//!
//! Every hierarchy is stamped with its link id, so one shared observer
//! (e.g. a [`hpfq_obs::JsonlObserver`] over a [`hpfq_obs::SharedBuf`])
//! yields a single merged trace from which `hpfq-analysis` recovers
//! per-hop and end-to-end delays.
//!
//! # Faults and degradation
//!
//! The network validates what arrives and knows nothing of how a packet
//! was lost or mangled upstream: a lossy or corrupting path is a
//! [`Source`] whose output says so (`hpfq-chaos`'s `ChaosSource` wraps
//! one). Malformed packets are caught by [`Packet::validate`] at
//! admission: each is dropped before it reaches the scheduler, counted as
//! a fault drop, and reported as a [`FaultKind::InvalidPacket`] fault. The
//! flow keeps being served — isolating a misbehaving flow is the
//! scheduler's own job. Nothing in this path panics.

use std::any::Any;

use hpfq_core::{Hierarchy, HpfqError, NodeId, NodeScheduler, Packet};
use hpfq_events::Engine;
use hpfq_obs::{DropEvent, FaultEvent, FaultKind, NoopObserver, Observer, PacketInfo};

use crate::flow_map::FlowIndex;
use crate::source::{CbrSource, Few, PoissonSource, Source, SourceOutput};
use crate::stats::{ServiceRecord, SimStats};

/// Index of a registered source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceId(pub usize);

/// One hop of a [`Route`]: which link serves the packet, at which leaf of
/// that link's hierarchy, under what buffer, and how long the packet
/// propagates after transmission (to the next hop, or — on the last hop —
/// to the destination that acknowledges delivery).
#[derive(Debug, Clone, Copy)]
pub struct Hop {
    /// Link (index from [`Network::add_link`]) that serves this hop.
    pub link: usize,
    /// Leaf of that link's hierarchy the flow is queued at.
    pub leaf: NodeId,
    /// Drop-tail buffer limit for that leaf in bytes (`None` = unbounded).
    pub buffer_bytes: Option<u64>,
    /// Propagation delay after transmission on this hop.
    pub prop_delay: f64,
}

/// A flow's static path through the network, first hop first. Routes must
/// not visit the same link twice.
#[derive(Debug, Clone)]
pub struct Route {
    /// The hops, in forwarding order. Never empty. A single hop — every
    /// route of a one-link network — is held inline and allocates nothing.
    pub hops: Few<Hop>,
}

impl Route {
    /// A multi-hop route. Panics unless it has a hop, visits no link twice
    /// and has finite, non-negative propagation delays.
    #[expect(
        clippy::panic,
        reason = "documented constructor contract; routes are built before the run"
    )]
    pub fn new(hops: Vec<Hop>) -> Self {
        let route = Route {
            hops: hops.into_iter().collect(),
        };
        if let Err(what) = route.check() {
            panic!("{what}");
        }
        route
    }

    /// What [`Route::new`] asserts.
    fn check(&self) -> Result<(), String> {
        if self.hops.is_empty() {
            return Err("a route needs at least one hop".into());
        }
        for (i, h) in self.hops.iter().enumerate() {
            if self.hops[..i].iter().any(|p| p.link == h.link) {
                return Err(format!("route visits link {} twice", h.link));
            }
            if !is_delay(h.prop_delay) {
                return Err(format!("route propagation delay {}", h.prop_delay));
            }
        }
        Ok(())
    }

    /// The single-hop route of a one-link network: serve at `leaf` on
    /// link 0, deliver after `delivery_delay`.
    pub fn single(leaf: NodeId, buffer_bytes: Option<u64>, delivery_delay: f64) -> Self {
        Route {
            hops: Few::one(Hop {
                link: 0,
                leaf,
                buffer_bytes,
                prop_delay: delivery_delay,
            }),
        }
    }

    /// [`Route::single`] for an open-loop source: unbounded buffer, no
    /// delivery delay.
    pub fn open_loop(leaf: NodeId) -> Self {
        Route::single(leaf, None, 0.0)
    }
}

/// A delay a route or a delivery may take: finite, not negative.
fn is_delay(d: f64) -> bool {
    d.is_finite() && d >= 0.0
}

/// A rate a link may run at: finite, not negative (0 is an outage).
fn is_link_rate(bps: f64) -> bool {
    bps.is_finite() && bps >= 0.0
}

/// A control-plane action scheduled against the simulation clock with
/// [`Network::schedule_command`]. Commands model operator actions and
/// environmental faults; they are part of the event schedule, so runs stay
/// deterministic.
pub enum SimCommand {
    /// Change `link`'s rate to `bps` (bits/s; link 0 for a
    /// [`Network::single_link`]). `0.0` models an outage: the in-flight
    /// packet is suspended and resumes — with its already-sent bits
    /// credited — when a later command restores service. An unknown link
    /// or a rate that is NaN, negative or infinite is refused into
    /// [`Network::command_errors`].
    SetLinkRate {
        /// Link to change.
        link: usize,
        /// New rate in bits/s (0 = outage).
        bps: f64,
    },
    /// Attach a new leaf under `parent` on **link 0** with share `phi` and
    /// start `source` feeding it (flow churn: join). Refused into
    /// [`Network::command_errors`] on a network without a link 0.
    AddFlow {
        /// Parent node for the new leaf (on link 0's hierarchy).
        parent: NodeId,
        /// Guaranteed share of the new leaf.
        phi: f64,
        /// Flow id the source stamps on its packets.
        flow: u32,
        /// The traffic source; its `start()` runs at the command's time.
        source: Box<dyn Source>,
        /// Drop-tail buffer for the new leaf (`None` = unbounded).
        buffer_bytes: Option<u64>,
        /// One-way delivery delay for the new source.
        delivery_delay: f64,
    },
    /// Detach `flow`'s leaves (flow churn: leave) at every hop of its
    /// route. Queued packets behind an in-service head are purged and
    /// accounted; an offered head finishes service first and the share is
    /// freed then.
    RemoveFlow(u32),
}

impl std::fmt::Debug for SimCommand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimCommand::SetLinkRate { link, bps } => {
                write!(f, "SetLinkRate{{link:{link},bps:{bps}}}")
            }
            SimCommand::AddFlow {
                parent, phi, flow, ..
            } => write!(f, "AddFlow{{parent:{parent:?},phi:{phi},flow:{flow}}}"),
            SimCommand::RemoveFlow(flow) => write!(f, "RemoveFlow({flow})"),
        }
    }
}

#[derive(Debug)]
enum NetEvent {
    Wake(usize),
    /// A packet propagated between hops: admit it at `hop` of `src`'s
    /// route.
    Arrive {
        src: usize,
        hop: usize,
        pkt: Packet,
    },
    /// `pkt` reached its destination: call the source's `on_delivered`.
    /// Scheduled only for slots whose source wants the callback (see
    /// [`SourceSlot::wants_delivery`]).
    Deliver(usize, Packet),
    Command(SimCommand),
    /// Tear down hop `hop` of `src`'s route (churn). The first hop
    /// detaches synchronously; downstream hops receive this event after
    /// the route's cumulative propagation delay — teardown is a
    /// control-plane signal that travels the same path as the data, so
    /// packets already on the wire reach a hop before its leaf goes, and
    /// are purged with it. Its place among same-time events is its
    /// [`minor_of`] class.
    Detach {
        src: usize,
        hop: usize,
    },
}

/// The payload bits of a minor key, below the class byte.
const MINOR_CONTENT: u64 = (1 << 56) - 1;

/// Content-derived tie-break key for [`NetEvent`]s: a class tag in the
/// top byte, an identifying payload below it. It defines the order of
/// same-time events: commands, then wakes, then link completions, then
/// arrivals, deliveries and detaches, each class by its payload — a
/// function of the events themselves, not of when they were scheduled.
///
/// Payloads are unique per class at any instant (packet ids are globally
/// unique; source/link indices identify their timers), so residual
/// same-key ties are between events of identical content, where FIFO
/// order is content-determined too.
///
/// Class 2 is the link completion ([`tx_minor`]): it is never queued, but
/// it takes its place in the same order when [`Network::step`] picks
/// between the queue head and the earliest [`Link::tx_done`].
fn minor_of(ev: &NetEvent) -> u64 {
    let (class, content) = match ev {
        NetEvent::Command(cmd) => {
            let c = match cmd {
                SimCommand::SetLinkRate { link, .. } => *link as u64,
                SimCommand::AddFlow { flow, .. } => u64::from(*flow),
                SimCommand::RemoveFlow(flow) => u64::from(*flow),
            };
            (0u64, c)
        }
        NetEvent::Wake(i) => (1, *i as u64),
        NetEvent::Arrive { pkt, .. } => (3, pkt.id),
        NetEvent::Deliver(_, pkt) => (4, pkt.id),
        NetEvent::Detach { src, hop } => (5, ((*src as u64) << 16) | (*hop as u64 & 0xFFFF)),
    };
    (class << 56) | (content & MINOR_CONTENT)
}

/// An engine for [`NetEvent`]s whose timers are the `Wake`s: payload `i`
/// is `Wake(i)`, under [`minor_of`]'s key for it.
fn new_engine() -> Engine<NetEvent> {
    Engine::with_timers(
        |source| NetEvent::Wake(source as usize),
        |source| minor_of(&NetEvent::Wake(source as usize)),
    )
}

/// Tie-break key of `link`'s transmission completion: class 2, after
/// commands and wakes at the same instant, before arrivals, deliveries
/// and detaches.
fn tx_minor(link: usize) -> u64 {
    (2 << 56) | (link as u64 & MINOR_CONTENT)
}

/// Why [`Network::admit`] refused a packet.
enum Refused {
    /// The leaf's drop-tail buffer has no room for it.
    Full,
    /// The leaf is no longer in the hierarchy.
    NoLeaf,
}

/// What [`Network::step`] found due.
enum Due {
    /// A queued event, popped at its time.
    Event(f64, NetEvent),
    /// This link's pending completion.
    Completion(usize),
}

/// Per-link byte/packet conservation ledger, for multi-hop accounting
/// checks: at every link, `bytes_in == bytes_out + purged + queued`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkLedger {
    /// Bytes accepted into this link's hierarchy.
    pub bytes_in: u64,
    /// Bytes the link finished transmitting.
    pub bytes_out: u64,
    /// Bytes purged from this link's leaves (churn) or dropped at a
    /// later-hop buffer of this link.
    pub bytes_purged: u64,
    /// Packets accepted into this link's hierarchy.
    pub packets_in: u64,
    /// Packets the link finished transmitting.
    pub packets_out: u64,
}

/// One output link: its hierarchy plus the in-flight transmission state.
struct Link<S: NodeScheduler, O: Observer> {
    server: Hierarchy<S, O>,
    /// Current service rate in bits/s (0 during an outage).
    rate: f64,
    /// Transmission start time of the in-flight packet.
    tx_start: f64,
    /// When the in-flight packet leaves the wire: the link's one pending
    /// completion. `None` while the link is idle or its transmission is
    /// suspended by an outage. A link has at most one
    /// completion outstanding, so it lives here instead of in the event
    /// queue; a rate change simply overwrites it.
    tx_done: Option<f64>,
    /// Bits of the in-flight packet not yet on the wire, as of
    /// `tx_updated`.
    tx_remaining_bits: f64,
    /// Time `tx_remaining_bits` was last brought up to date.
    tx_updated: f64,
    ledger: LinkLedger,
}

/// An attached source: the built-in open-loop generators by value, in the
/// slot, so a wake on one is a `match` rather than a call through a
/// pointer to a separate allocation; every other source boxed.
enum HeldSource {
    Cbr(CbrSource),
    Poisson(PoissonSource),
    Boxed(Box<dyn Source>),
}

impl HeldSource {
    /// `source`, by value if it is a [`CbrSource`] or a [`PoissonSource`],
    /// else boxed.
    fn new<T: Source + 'static>(source: T) -> HeldSource {
        let mut source = Some(source);
        let any: &mut dyn Any = &mut source;
        if let Some(s) = take(any) {
            return HeldSource::Cbr(s);
        }
        if let Some(s) = take(any) {
            return HeldSource::Poisson(s);
        }
        #[expect(
            clippy::expect_used,
            reason = "only a downcast that matched takes the source, and it returned"
        )]
        let source = source.expect("no downcast took the source");
        HeldSource::Boxed(Box::new(source))
    }

    fn start(&mut self) -> SourceOutput {
        match self {
            HeldSource::Cbr(s) => s.start(),
            HeldSource::Poisson(s) => s.start(),
            HeldSource::Boxed(s) => s.start(),
        }
    }

    fn on_wake(&mut self, now: f64) -> SourceOutput {
        match self {
            HeldSource::Cbr(s) => s.on_wake(now),
            HeldSource::Poisson(s) => s.on_wake(now),
            HeldSource::Boxed(s) => s.on_wake(now),
        }
    }

    fn on_delivered(&mut self, now: f64, pkt: &Packet) -> SourceOutput {
        match self {
            HeldSource::Cbr(s) => s.on_delivered(now, pkt),
            HeldSource::Poisson(s) => s.on_delivered(now, pkt),
            HeldSource::Boxed(s) => s.on_delivered(now, pkt),
        }
    }
}

/// The `T` in `any`, taken out, if `any` is an `Option<T>` holding one.
fn take<T: 'static>(any: &mut dyn Any) -> Option<T> {
    any.downcast_mut::<Option<T>>().and_then(Option::take)
}

/// One attached source and its runtime state.
pub(crate) struct SourceSlot {
    /// The generator itself.
    src: HeldSource,
    route: Route,
    /// Flow id registered for the source at attach time.
    flow: u32,
    /// `false` once the flow has been removed (churn): its timers and
    /// deliveries are discarded from then on.
    live: bool,
    /// Whether `start()` has run (sources start exactly once even across
    /// segmented [`Network::run`] calls).
    started: bool,
    /// [`Source::wants_delivery`], read when the source was attached: the
    /// last hop reads it on every completion without a virtual call.
    wants_delivery: bool,
    /// Where [`SimStats`] keeps this flow's counters: the hint of
    /// [`crate::FlowMap::get_or_insert_hinted`], so a packet's records
    /// reach them without a lookup. Only a guess — checked on use, any
    /// value safe.
    stats_slot: u32,
}

/// Why [`Network::run_parallel`] ran sequentially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// There is no sharded runtime: every run is [`Network::run`].
    NoShardedRuntime,
}

/// What [`Network::run_parallel`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelReport {
    /// Why the run was sequential; always set.
    pub fallback: Option<FallbackReason>,
}

/// A multi-link discrete-event simulation. Build each link's [`Hierarchy`]
/// first, [`Network::add_link`] them, attach routed sources, then
/// [`Network::run`].
///
/// Each hierarchy's [`Observer`] (second type parameter, default
/// [`NoopObserver`]) sees every scheduling event on its link; the network
/// adds the events only it can know: exact transmission times, buffer
/// drops, and faults.
pub struct Network<S: NodeScheduler, O: Observer = NoopObserver> {
    links: Vec<Link<S, O>>,
    engine: Engine<NetEvent>,
    sources: Vec<SourceSlot>,
    /// Every source below this index has `started` set, so
    /// [`Network::start_pending_sources`] begins its scan here instead of
    /// re-probing every slot on each [`Network::run`] segment. Zero is
    /// always valid.
    started_below: usize,
    /// Statistics collector (network-wide; service records are written at
    /// a flow's **last** hop).
    pub stats: SimStats,
    /// Maps a flow id to the source that owns it (for delivery routing):
    /// an index over `sources`, keyed by each slot's own `flow`. Of two
    /// slots registered under one flow id it holds the later; built from
    /// `sources` in slot order it is always the same index.
    flow_owner: FlowIndex,
    /// Bytes currently propagating between hops (transmitted at hop *i*,
    /// not yet admitted at hop *i+1*). Signed so that
    /// [`Network::verify_conservation`] reports a negative count instead
    /// of wrapping it.
    inflight_bytes: i64,
    /// Commands that could not be applied (e.g. adding a flow whose share
    /// would overflow its parent): `(time, error)` pairs. The run
    /// continues — a rejected command is degraded service, not a crash.
    pub command_errors: Vec<(f64, HpfqError)>,
}

impl<S: NodeScheduler, O: Observer> Default for Network<S, O> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: NodeScheduler, O: Observer> Network<S, O> {
    /// An empty network: add links, then routed sources.
    pub fn new() -> Self {
        Network {
            links: Vec::new(),
            engine: new_engine(),
            sources: Vec::new(),
            started_below: 0,
            stats: SimStats::new(),
            flow_owner: FlowIndex::default(),
            inflight_bytes: 0,
            command_errors: Vec::new(),
        }
    }

    /// A one-link network scheduled by the fully built `server`
    /// hierarchy: link 0 is the only link, so routes are [`Route::single`]
    /// or [`Route::open_loop`].
    pub fn single_link(server: Hierarchy<S, O>) -> Self {
        let mut net = Self::new();
        net.add_link(server);
        net
    }

    /// Adds an output link scheduled by the fully built `server` hierarchy
    /// and returns its link index. The hierarchy's emitted events are
    /// re-stamped with that index, so a shared observer can tell links
    /// apart in a merged trace.
    pub fn add_link(&mut self, mut server: Hierarchy<S, O>) -> usize {
        let idx = self.links.len();
        server.set_link_id(idx);
        let rate = server.link_rate();
        self.links.push(Link {
            server,
            rate,
            tx_start: 0.0,
            tx_done: None,
            tx_remaining_bits: 0.0,
            tx_updated: 0.0,
            ledger: LinkLedger::default(),
        });
        idx
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// `link`'s current service rate in bits/s (0 during an outage).
    pub fn link_rate(&self, link: usize) -> f64 {
        self.links[link].rate
    }

    /// Read access to `link`'s hierarchy (e.g. for queue inspection).
    pub fn link_server(&self, link: usize) -> &Hierarchy<S, O> {
        &self.links[link].server
    }

    /// `link`'s conservation ledger.
    pub fn link_ledger(&self, link: usize) -> LinkLedger {
        self.links[link].ledger
    }

    /// `link`'s observer.
    pub fn observer_of(&self, link: usize) -> &O {
        self.links[link].server.observer()
    }

    /// Consumes the network, returning every link's observer in link
    /// order.
    pub fn into_observers(self) -> Vec<O> {
        self.links
            .into_iter()
            .map(|l| l.server.into_observer())
            .collect()
    }

    /// Outstanding (scheduled, unfired) events — forwarded from the
    /// engine, for capacity diagnostics and the arena-reuse tests. Link
    /// completions are not events: at most one per link is pending, held
    /// in the link itself.
    pub fn outstanding_events(&self) -> usize {
        self.engine.outstanding()
    }

    /// Size of the event arena (high-water mark of outstanding events
    /// other than wakes, which are timers and take no slot), forwarded from
    /// the engine.
    pub fn event_arena_len(&self) -> usize {
        self.engine.arena_len()
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.engine.now()
    }

    /// Attaches a source whose packets follow `route`. `flow` is the flow
    /// id the source stamps on its packets (used to route delivery
    /// notifications back to it).
    pub fn add_route(
        &mut self,
        flow: u32,
        source: impl Source + 'static,
        route: Route,
    ) -> SourceId {
        for hop in route.hops.iter() {
            assert!(hop.link < self.links.len(), "route references unknown link");
            assert!(
                self.links[hop.link].server.is_leaf(hop.leaf),
                "route must attach to a leaf"
            );
        }
        SourceId(self.push_source(SourceSlot {
            wants_delivery: source.wants_delivery(),
            src: HeldSource::new(source),
            route,
            flow,
            live: true,
            started: false,
            stats_slot: 0,
        }))
    }

    /// Appends `slot` and makes it the owner of its flow id; returns its
    /// index.
    fn push_source(&mut self, slot: SourceSlot) -> usize {
        let idx = self.sources.len();
        let flow = slot.flow;
        self.sources.push(slot);
        self.flow_owner.insert(flow, idx, |i| self.sources[i].flow);
        idx
    }

    /// The source registered (last) under `flow`.
    fn owner_of(&self, flow: u32) -> Option<usize> {
        self.flow_owner.get(flow, |i| self.sources[i].flow)
    }

    /// Schedules a control-plane [`SimCommand`] to fire at time `t` (times
    /// in the past fire immediately once the run reaches them).
    pub fn schedule_command(&mut self, t: f64, cmd: SimCommand) {
        self.queue_event(t, NetEvent::Command(cmd));
    }

    /// Puts `ev` into the engine: a `Wake` as a timer, anything else in the
    /// arena under its [`minor_of`] key. The one way in.
    fn queue_event(&mut self, t: f64, ev: NetEvent) {
        match ev {
            NetEvent::Wake(i) => {
                #[expect(
                    clippy::expect_used,
                    reason = "a `Wake` names a source this network holds, and 2^32 source \
                              slots are 256 GiB"
                )]
                let source = u32::try_from(i).expect("source index fits the 32-bit timer payload");
                self.engine.schedule_timer(t, source);
            }
            ev => self.engine.schedule_keyed(t, minor_of(&ev), ev),
        }
    }

    fn emit_fault(&mut self, link: usize, kind: FaultKind, node: usize, flow: u32, value: f64) {
        self.links[link].server.observe(|o| {
            o.on_fault(&FaultEvent {
                time: self.engine.now(),
                link,
                kind,
                node,
                flow,
                value,
            });
        });
    }

    fn apply_output(&mut self, src_idx: usize, out: SourceOutput) {
        let now = self.engine.now();
        let ingress = self.sources[src_idx].route.hops[0];
        for wake in out.wakes {
            self.queue_event(wake.max(now), NetEvent::Wake(src_idx));
        }
        for mut pkt in out.packets {
            pkt.arrival = now;
            // "Offered" is what reaches the network's ingress port.
            self.stats
                .record_arrival_at(&mut self.sources[src_idx].stats_slot, &pkt);
            // Malformed packets never reach the scheduler maths: they are
            // dropped and counted here.
            if pkt.validate().is_err() {
                self.stats.record_fault_drop(&pkt);
                self.emit_fault(
                    ingress.link,
                    FaultKind::InvalidPacket,
                    ingress.leaf.index(),
                    pkt.flow,
                    f64::from(pkt.len_bytes),
                );
                continue;
            }
            match self.admit(ingress, pkt) {
                Ok(()) => self
                    .stats
                    .record_accept_at(&mut self.sources[src_idx].stats_slot, &pkt),
                Err(Refused::Full) => self.stats.record_drop(&pkt),
                // The leaf vanished between emission and admission (e.g.
                // removed while this packet was being generated).
                Err(Refused::NoLeaf) => self.stats.record_fault_drop(&pkt),
            }
        }
        self.try_start(ingress.link);
    }

    /// Enqueues `pkt` at `hop`'s leaf and counts it into the link's ledger,
    /// or refuses it: a full drop-tail buffer is traced as a [`DropEvent`],
    /// a leaf that is gone as a [`FaultKind::PacketDrop`] fault. The one
    /// admission path of ingress and downstream hops; each caller accounts
    /// a refusal in its own statistics.
    fn admit(&mut self, hop: Hop, pkt: Packet) -> Result<(), Refused> {
        let now = self.engine.now();
        let server = &mut self.links[hop.link].server;
        if let Some(limit) = hop.buffer_bytes {
            let queued = server.leaf_queue_bytes(hop.leaf);
            if queued + u64::from(pkt.len_bytes) > limit {
                server.observe(|o| {
                    o.on_drop(&DropEvent {
                        time: now,
                        link: hop.link,
                        leaf: hop.leaf.index(),
                        pkt: PacketInfo {
                            id: pkt.id,
                            flow: pkt.flow,
                            len_bytes: pkt.len_bytes,
                            arrival: pkt.arrival,
                        },
                        queue_bytes: queued,
                    });
                });
                return Err(Refused::Full);
            }
        }
        if server.try_enqueue(hop.leaf, pkt).is_err() {
            self.emit_fault(
                hop.link,
                FaultKind::PacketDrop,
                hop.leaf.index(),
                pkt.flow,
                f64::from(pkt.len_bytes),
            );
            return Err(Refused::NoLeaf);
        }
        let l = &mut self.links[hop.link].ledger;
        l.bytes_in += u64::from(pkt.len_bytes);
        l.packets_in += 1;
        Ok(())
    }

    fn try_start(&mut self, link: usize) {
        let now = self.engine.now();
        let l = &mut self.links[link];
        if l.rate <= 0.0 || l.server.is_transmitting() || !l.server.has_pending() {
            return;
        }
        // has_pending() was checked just above, so this is always Some;
        // degrade to a no-op rather than asserting.
        let Some(pkt) = l.server.start_transmission_at(now) else {
            return;
        };
        l.tx_start = now;
        l.tx_remaining_bits = pkt.bits();
        l.tx_updated = now;
        l.tx_done = Some(now + pkt.tx_time(l.rate));
    }

    /// Changes one link's service rate at the current instant. A rate of 0
    /// suspends service (outage); the in-flight packet, if any, keeps the
    /// bits it already transmitted and its completion is rescheduled when
    /// a later call restores a positive rate. `new_rate` has passed
    /// [`is_link_rate`].
    fn set_link_rate(&mut self, link: usize, new_rate: f64) {
        let now = self.engine.now();
        let l = &mut self.links[link];
        if l.server.is_transmitting() {
            // Credit bits sent under the old rate, then reschedule the
            // remainder under the new one.
            let sent = (now - l.tx_updated) * l.rate;
            l.tx_remaining_bits = (l.tx_remaining_bits - sent).max(0.0);
            l.tx_updated = now;
            l.tx_done = (new_rate > 0.0).then(|| now + l.tx_remaining_bits / new_rate);
        }
        l.rate = new_rate;
        // Resync the hierarchy's reference clock: the GPS-exact policies
        // measure elapsed busy time in nominal-rate link seconds, so a
        // degraded link must slow (or, in an outage, freeze) that clock.
        let factor = new_rate / l.server.link_rate();
        if let Err(e) = l.server.set_link_rate_factor(now, factor) {
            self.command_errors.push((now, e));
        }
        self.try_start(link);
    }

    /// Detaches hop 0 of `src`'s route now and schedules [`NetEvent::
    /// Detach`] for each downstream hop at the route's cumulative
    /// propagation delay. The delay keeps teardown causal with the data
    /// path.
    fn detach_route(&mut self, src: usize) {
        let now = self.engine.now();
        self.detach_hop(src, 0);
        let n_hops = self.sources[src].route.hops.len();
        let mut delay = 0.0;
        for hop in 1..n_hops {
            delay += self.sources[src].route.hops[hop - 1].prop_delay;
            self.queue_event(now + delay, NetEvent::Detach { src, hop });
        }
    }

    /// Removes the leaf at hop `hop_idx` of `src`'s route, purging and
    /// accounting its queued packets.
    fn detach_hop(&mut self, src: usize, hop_idx: usize) {
        let now = self.engine.now();
        let flow = self.sources[src].flow;
        let hop = self.sources[src].route.hops[hop_idx];
        // Captured before removal: churn reports the share being freed.
        let phi = self.links[hop.link].server.phi(hop.leaf);
        match self.links[hop.link].server.remove_leaf(hop.leaf) {
            Ok(purged) => {
                let mut purged_bytes = 0u64;
                for p in &purged {
                    self.stats.record_purge(p);
                    purged_bytes += u64::from(p.len_bytes);
                }
                self.links[hop.link].ledger.bytes_purged += purged_bytes;
                self.emit_fault(hop.link, FaultKind::FlowRemove, hop.leaf.index(), flow, phi);
            }
            Err(e) => self.command_errors.push((now, e)),
        }
    }

    fn apply_command(&mut self, cmd: SimCommand) {
        let now = self.engine.now();
        match cmd {
            SimCommand::SetLinkRate { link, bps } => self.rate_command(link, bps),
            SimCommand::AddFlow {
                parent,
                phi,
                flow,
                source,
                buffer_bytes,
                delivery_delay,
            } => match self
                .links
                .first_mut()
                .map_or(Err(HpfqError::UnknownNode(0)), |l| {
                    l.server.add_leaf(parent, phi)
                }) {
                Ok(leaf) => {
                    let idx = self.push_source(SourceSlot {
                        wants_delivery: source.wants_delivery(),
                        src: HeldSource::Boxed(source),
                        route: Route::single(leaf, buffer_bytes, delivery_delay),
                        flow,
                        live: true,
                        started: true,
                        stats_slot: 0,
                    });
                    self.emit_fault(0, FaultKind::FlowAdd, leaf.index(), flow, phi);
                    let out = self.sources[idx].src.start();
                    debug_assert!(out.packets.is_empty(), "start() must not emit packets");
                    self.apply_output(idx, out);
                }
                Err(e) => self.command_errors.push((now, e)),
            },
            SimCommand::RemoveFlow(flow) => {
                let Some(idx) = self.owner_of(flow) else {
                    self.command_errors
                        .push((now, HpfqError::UnknownNode(usize::MAX)));
                    return;
                };
                if !self.sources[idx].live {
                    return;
                }
                self.sources[idx].live = false;
                self.detach_route(idx);
            }
        }
    }

    /// Applies a [`SimCommand::SetLinkRate`]: refuses an unknown link or a
    /// rate no link can run at before the change is traced, so a refused
    /// command leaves no fault event behind.
    fn rate_command(&mut self, link: usize, bps: f64) {
        let now = self.engine.now();
        if link >= self.links.len() {
            self.command_errors
                .push((now, HpfqError::UnknownNode(link)));
            return;
        }
        if !is_link_rate(bps) {
            self.command_errors.push((now, HpfqError::InvalidRate(bps)));
            return;
        }
        let kind = if bps == 0.0 {
            FaultKind::LinkDown
        } else if self.links[link].rate == 0.0 {
            FaultKind::LinkUp
        } else {
            FaultKind::LinkRate
        };
        self.emit_fault(link, kind, 0, 0, bps);
        self.set_link_rate(link, bps);
    }

    /// Admits `pkt` at hop `hop` of `src`'s route (a propagated packet
    /// from the previous hop). Drops at a downstream buffer are accounted
    /// as purges: the packet was already accepted into the network at
    /// ingress.
    fn arrive(&mut self, src: usize, hop_idx: usize, mut pkt: Packet) {
        self.inflight_bytes -= i64::from(pkt.len_bytes);
        let now = self.engine.now();
        let hop = self.sources[src].route.hops[hop_idx];
        // A removed flow's leaf disappears from this hop when
        // the Detach event lands here; until then bytes already on the
        // wire are admitted normally (they will be purged with the leaf).
        // The decision is the hop's leaf state, not the source's `live`
        // flag: teardown reaches each hop after the data ahead of it.
        pkt.arrival = now;
        if self.admit(hop, pkt).is_err() {
            self.stats.record_purge(&pkt);
        }
        self.try_start(hop.link);
    }

    /// `link`'s pending completion came due: the in-flight packet has left
    /// the wire.
    fn tx_complete(&mut self, link: usize) {
        let t = self.engine.now();
        let l = &mut self.links[link];
        let pkt = l.server.complete_transmission_at(t);
        let started = l.tx_start;
        {
            let l = &mut self.links[link].ledger;
            l.bytes_out += u64::from(pkt.len_bytes);
            l.packets_out += 1;
        }
        // What the statistics record if this hop is the packet's last.
        let served = ServiceRecord {
            id: pkt.id,
            flow: pkt.flow,
            len_bytes: pkt.len_bytes,
            arrival: pkt.arrival,
            start: started,
            end: t,
        };
        if let Some(owner) = self.owner_of(pkt.flow) {
            let route = &self.sources[owner].route;
            // Routes never repeat a link, so the position identifies the
            // hop just served.
            let hop_idx = route.hops.iter().position(|h| h.link == link);
            match hop_idx {
                Some(i) if i + 1 < route.hops.len() => {
                    // Propagate to the next hop (even if the source has
                    // since been removed: bytes on the wire stay on the
                    // wire; the next hop purges them once its leaf is
                    // detached).
                    self.inflight_bytes += i64::from(pkt.len_bytes);
                    let delay = route.hops[i].prop_delay;
                    self.queue_event(
                        t + delay,
                        NetEvent::Arrive {
                            src: owner,
                            hop: i + 1,
                            pkt,
                        },
                    );
                }
                _ => {
                    // Final hop: the packet leaves the network. A source
                    // that wants the callback always gets a delivery
                    // scheduled — the handler drops it if the flow has
                    // been removed by the time it lands. For a source whose
                    // `on_delivered` is the default no-op the event would
                    // change nothing, so none is scheduled.
                    let delay = route.hops.last().map(|h| h.prop_delay).unwrap_or(0.0);
                    let slot = &mut self.sources[owner];
                    self.stats.record_service_at(&mut slot.stats_slot, served);
                    if slot.wants_delivery {
                        self.queue_event(t + delay, NetEvent::Deliver(owner, pkt));
                    }
                }
            }
        } else {
            // No owner (should not happen): count the service at this
            // link as final.
            self.stats.record_service(served);
        }
        self.try_start(link);
    }

    /// Runs the simulation until `horizon` seconds (events strictly after
    /// the horizon are left unprocessed) or until no events remain. May be
    /// called repeatedly with growing horizons to run in segments; sources
    /// are started once.
    pub fn run(&mut self, horizon: f64) {
        self.start_pending_sources();
        while self.step(horizon) {}
        // Unfired events past the horizon stay queued so a subsequent
        // `run` with a larger horizon continues cleanly.
    }

    /// Runs to `horizon` exactly as [`Network::run`] does, and reports that
    /// it ran sequentially: there is no sharded runtime (DESIGN.md §11).
    /// Kept, like `NodeScheduler::set_dispatch_batch`, only because the
    /// repository benchmark's ledger (`benchmark/src/ledger.rs`) calls it;
    /// it leaves with that call in ROADMAP item 1(b).
    pub fn run_parallel(&mut self, horizon: f64, _shards: usize) -> ParallelReport {
        self.run(horizon);
        ParallelReport {
            fallback: Some(FallbackReason::NoShardedRuntime),
        }
    }

    /// The link whose pending completion is earliest, with its time.
    /// Equal times go to the lower link index, as [`tx_minor`] orders them.
    fn next_completion(&self) -> Option<(f64, usize)> {
        let mut next: Option<(f64, usize)> = None;
        for (i, link) in self.links.iter().enumerate() {
            if let Some(t) = link.tx_done {
                if next.is_none_or(|(best, _)| t < best) {
                    next = Some((t, i));
                }
            }
        }
        next
    }

    /// Advances the simulation by one event at or before `horizon`;
    /// `false` when nothing is due.
    fn step(&mut self, horizon: f64) -> bool {
        let Some(due) = self.pop_due(horizon) else {
            return false;
        };
        match due {
            Due::Event(t, ev) => self.handle(t, ev),
            Due::Completion(link) => self.tx_complete(link),
        }
        true
    }

    /// Takes the earlier, in `(time, minor key)` order, of the queue head
    /// and the earliest link completion, advancing the clock to it — or
    /// leaves both pending when that one lies beyond `horizon`.
    fn pop_due(&mut self, horizon: f64) -> Option<Due> {
        if let Some((done, link)) = self.next_completion() {
            // Never a tie: no queued event carries the completion class.
            let first = self
                .engine
                .peek_key()
                .is_none_or(|head| (done, tx_minor(link)) < head);
            if first {
                if done > horizon {
                    return None;
                }
                self.links[link].tx_done = None;
                self.engine.advance_to(done);
                return Some(Due::Completion(link));
            }
        }
        self.engine
            .pop_due(horizon)
            .map(|(t, ev)| Due::Event(t, ev))
    }

    /// Starts any sources not yet started (first call, or sources attached
    /// between run segments).
    fn start_pending_sources(&mut self) {
        self.stats.reserve_flows(self.flow_owner.len());
        let pending = self.started_below..self.sources.len();
        self.started_below = pending.end;
        for i in pending {
            if !self.sources[i].started {
                self.sources[i].started = true;
                let out = self.sources[i].src.start();
                debug_assert!(out.packets.is_empty(), "start() must not emit packets");
                self.apply_output(i, out);
            }
        }
    }

    /// Dispatches one popped event.
    fn handle(&mut self, t: f64, ev: NetEvent) {
        match ev {
            NetEvent::Wake(i) => {
                if !self.sources[i].live {
                    return;
                }
                let out = self.sources[i].src.on_wake(t);
                self.apply_output(i, out);
            }
            NetEvent::Arrive { src, hop, pkt } => self.arrive(src, hop, pkt),
            NetEvent::Deliver(i, pkt) => {
                if !self.sources[i].live {
                    return;
                }
                let out = self.sources[i].src.on_delivered(t, &pkt);
                self.apply_output(i, out);
            }
            NetEvent::Command(cmd) => self.apply_command(cmd),
            NetEvent::Detach { src, hop } => self.detach_hop(src, hop),
        }
    }

    /// Bytes currently queued at `link`: its leaf queues, including any
    /// in-flight packet, which stays in its leaf queue until completion.
    pub fn queued_bytes_on(&self, link: usize) -> u64 {
        let l = &self.links[link];
        l.server
            .leaves_iter()
            .map(|leaf| l.server.leaf_queue_bytes(leaf))
            .sum()
    }

    /// Bytes currently queued across every link.
    pub fn queued_bytes(&self) -> u64 {
        (0..self.links.len()).map(|i| self.queued_bytes_on(i)).sum()
    }

    /// End-to-end byte conservation check: every offered byte is accounted
    /// for as served, buffer-dropped, fault-dropped, purged, still queued,
    /// or propagating between hops. Returns a description of the
    /// imbalance, if any.
    pub fn verify_conservation(&self) -> Result<(), String> {
        let inflight = u64::try_from(self.inflight_bytes).map_err(|_| {
            format!(
                "in-flight byte count is negative ({}): arrivals outran transmissions",
                self.inflight_bytes
            )
        })?;
        self.stats
            .accounting_balanced(self.queued_bytes() + inflight)?;
        // Per-link ledgers must balance independently (multi-hop: every
        // hop conserves bytes on its own).
        for (i, link) in self.links.iter().enumerate() {
            let LinkLedger {
                bytes_in,
                bytes_out,
                bytes_purged,
                ..
            } = link.ledger;
            let queued = self.queued_bytes_on(i);
            if bytes_in != bytes_out + bytes_purged + queued {
                return Err(format!(
                    "link {i}: in {bytes_in} B != out {bytes_out} + purged {bytes_purged} \
                     + queued {queued} B"
                ));
            }
        }
        Ok(())
    }
}
