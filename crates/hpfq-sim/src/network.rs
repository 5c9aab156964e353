//! Multi-link network simulation on the shared [`hpfq_events`] engine.
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
//! The event loop is [`hpfq_events::Engine`] — the same deterministic
//! `(time, seq)` FIFO-tie-breaking core used by the fluid simulator and the
//! chaos harness. Event model (ties fire in a content-derived order, so
//! runs are deterministic):
//!
//! * `Wake(source)` — a source timer fires; emitted packets are enqueued at
//!   the first hop's leaf (subject to its drop-tail buffer) and the link
//!   starts transmitting if idle. The source index is all there is to a
//!   wake, so it is queued as an engine *timer*
//!   ([`hpfq_events::EventQueue::with_timers`]): sixteen bytes in the
//!   event heap and no arena slot, on the sequential engine and on every
//!   shard's alike. Every other event carries a packet or a command and
//!   takes a slot.
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
//! A [`FaultInjector`] installed with [`Network::set_fault_injector`] sees
//! every packet at network ingress (it may drop or corrupt it) and every
//! source timer (it may jitter it). Malformed packets are caught by
//! [`Packet::validate`] at admission and become *strikes* against their
//! flow under the network's [`EscalationPolicy`]: warn, quarantine (the
//! flow's leaves are removed at every hop), or halt. Nothing in this path
//! panics.

use hpfq_core::{Hierarchy, HpfqError, NodeId, NodeScheduler, Packet};
use hpfq_events::Engine;
use hpfq_obs::snap::{refuse, SnapError, Value};
use hpfq_obs::{
    DropEvent, EpochSpan, EscalationLevel, EscalationPolicy, EscalationState, FaultEvent,
    FaultKind, NoopObserver, Observer, PacketInfo, QuarantineEvent, SpanKind, SpanProfiler,
    SpanSnapshot,
};

use crate::flow_map::FlowIndex;
use crate::source::{Few, Source, SourceOutput};
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
    pub fn new(hops: Vec<Hop>) -> Self {
        let route = Route {
            hops: hops.into_iter().collect(),
        };
        if let Err(what) = route.check() {
            panic!("{what}");
        }
        route
    }

    /// What [`Route::new`] asserts; a snapshot's routes are held to it.
    pub(crate) fn check(&self) -> Result<(), String> {
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
pub(crate) fn is_delay(d: f64) -> bool {
    d.is_finite() && d >= 0.0
}

/// A rate a link may run at: finite, not negative (0 is an outage).
pub(crate) fn is_link_rate(bps: f64) -> bool {
    bps.is_finite() && bps >= 0.0
}

/// A control-plane action scheduled against the simulation clock with
/// [`Network::schedule_command`]. Commands model operator actions and
/// environmental faults; they are part of the event schedule, so runs stay
/// deterministic.
pub enum SimCommand {
    /// Change link 0's rate to `bps` (bits/s) — the form for a
    /// [`Network::single_link`]. `0.0` models an outage:
    /// the in-flight packet is suspended and resumes — with its
    /// already-sent bits credited — when a later command restores service.
    SetLinkRate(f64),
    /// Change the rate of a specific link (multi-link networks).
    SetLinkRateOn {
        /// Link to change.
        link: usize,
        /// New rate in bits/s (0 = outage).
        bps: f64,
    },
    /// Attach a new leaf under `parent` on **link 0** with share `phi` and
    /// start `source` feeding it (flow churn: join).
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
            SimCommand::SetLinkRate(r) => write!(f, "SetLinkRate({r})"),
            SimCommand::SetLinkRateOn { link, bps } => {
                write!(f, "SetLinkRateOn{{link:{link},bps:{bps}}}")
            }
            SimCommand::AddFlow {
                parent, phi, flow, ..
            } => write!(f, "AddFlow{{parent:{parent:?},phi:{phi},flow:{flow}}}"),
            SimCommand::RemoveFlow(flow) => write!(f, "RemoveFlow({flow})"),
        }
    }
}

/// What a [`FaultInjector`] decided about one packet at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketVerdict {
    /// Deliver the packet to the scheduler unchanged.
    Pass,
    /// Silently lose the packet (modeling loss upstream of the server).
    Drop,
    /// The injector mutated the packet's fields in place; the admission
    /// path revalidates it (a corrupted-invalid packet then strikes its
    /// flow under the escalation policy).
    Corrupted,
}

/// A deterministic fault source consulted on the simulator's hot paths.
///
/// Implementations must be pure functions of their own seeded state so the
/// same injector over the same workload reproduces the same faults; for
/// scheduler-differential experiments the per-flow decision streams should
/// depend only on each flow's own packet/wake order (which open-loop
/// sources make scheduler-independent).
///
/// `Send` is a supertrait so a `Network` holding an injector can cross
/// the parallel runtime's thread-scope type check.
pub trait FaultInjector: Send {
    /// Inspect — and possibly mutate — a packet at admission.
    fn on_packet(&mut self, _now: f64, _pkt: &mut Packet) -> PacketVerdict {
        PacketVerdict::Pass
    }

    /// Perturb a wake time requested by `flow`'s source. Returning `wake`
    /// unchanged means no jitter; returned times earlier than `now` are
    /// clamped to `now` by the scheduler.
    fn jitter(&mut self, _now: f64, _flow: u32, wake: f64) -> f64 {
        wake
    }

    /// Serializes the injector's internal state for an epoch checkpoint.
    /// The default refuses: [`Network::snapshot`] then reports that the
    /// installed injector cannot be checkpointed.
    fn save_state(&self) -> Result<Value, SnapError> {
        Err(refuse("fault injector does not support checkpointing"))
    }

    /// Restores state captured by [`FaultInjector::save_state`] into an
    /// injector of the same concrete type and configuration. The state is
    /// untrusted input: a refusal leaves `self` as it was.
    fn load_state(&mut self, _state: &Value) -> Result<(), SnapError> {
        Err(refuse("fault injector does not support checkpointing"))
    }

    /// Splits off a child injector owning the per-flow decision streams of
    /// `flows`, for one shard of a parallel run. Implementations whose
    /// fault streams depend only on each flow's own packet/wake order can
    /// fork exactly: the child advances precisely the streams its shard's
    /// flows would have advanced sequentially. Returning `None` (the
    /// default) declares the injector unsplittable, and parallel runs fall
    /// back to sequential with
    /// [`crate::FallbackReason::InjectorUnsplittable`].
    fn fork_shard(&mut self, _flows: &[u32]) -> Option<Box<dyn FaultInjector>> {
        None
    }

    /// Folds a shard child's final state (its [`FaultInjector::save_state`]
    /// value) back into the parent after a parallel run, re-synchronizing
    /// the streams the child advanced.
    fn absorb_shard(&mut self, _state: &Value) -> Result<(), SnapError> {
        Ok(())
    }
}

/// The no-fault injector (used when none is installed).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn save_state(&self) -> Result<Value, SnapError> {
        Ok(Value::map(vec![("kind", Value::Str("none".into()))]))
    }

    fn load_state(&mut self, state: &Value) -> Result<(), SnapError> {
        match state.get("kind")?.as_str()? {
            "none" => Ok(()),
            other => Err(refuse(format!(
                "expected no-fault injector state, found '{other}'"
            ))),
        }
    }

    fn fork_shard(&mut self, _flows: &[u32]) -> Option<Box<dyn FaultInjector>> {
        Some(Box::new(NoFaults))
    }
}

/// Why a leaf is being detached by a [`NetEvent::Detach`] event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DetachReason {
    /// Escalation-ladder quarantine; carries the strike count at
    /// quarantine time (captured then so delayed downstream detaches
    /// report the same count in both sequential and parallel runs).
    Quarantine { strikes: u32 },
    /// Flow churn ([`SimCommand::RemoveFlow`]).
    Churn,
}

#[derive(Debug)]
pub(crate) enum NetEvent {
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
    /// Tear down hop `hop` of `src`'s route (quarantine or churn). The
    /// first hop detaches synchronously; downstream hops receive this
    /// event after the route's cumulative propagation delay — teardown is
    /// a control-plane signal that travels the same path as the data, so
    /// its per-hop delay is at least the conservative lookahead of any
    /// shard boundary it crosses.
    Detach {
        src: usize,
        hop: usize,
        reason: DetachReason,
    },
}

/// The payload bits of a minor key, below the class byte.
const MINOR_CONTENT: u64 = (1 << 56) - 1;

/// Content-derived tie-break key for [`NetEvent`]s: a class tag in the
/// top byte, an identifying payload below it. Two runs that pop the same
/// events at the same times order equal-time events identically **without
/// consulting scheduling order across streams**, which is what lets a
/// sharded parallel run reproduce the sequential event order exactly
/// (per-shard FIFO sequence numbers cannot match the global ones).
///
/// Payloads are unique per class at any instant (packet ids are globally
/// unique; source/link indices identify their timers), so residual
/// same-key ties are between events of identical content, where FIFO
/// order is content-determined too.
///
/// Class 2 is the link completion ([`tx_minor`]): it is never queued, but
/// it takes its place in the same order when [`Network::step`] picks
/// between the queue head and the earliest [`Link::tx_done`].
pub(crate) fn minor_of(ev: &NetEvent) -> u64 {
    let (class, content) = match ev {
        NetEvent::Command(cmd) => {
            let c = match cmd {
                SimCommand::SetLinkRate(_) => 0,
                SimCommand::SetLinkRateOn { link, .. } => *link as u64,
                SimCommand::AddFlow { flow, .. } => u64::from(*flow),
                SimCommand::RemoveFlow(flow) => u64::from(*flow),
            };
            (0u64, c)
        }
        NetEvent::Wake(i) => (1, *i as u64),
        NetEvent::Arrive { pkt, .. } => (3, pkt.id),
        NetEvent::Deliver(_, pkt) => (4, pkt.id),
        NetEvent::Detach { src, hop, .. } => (5, ((*src as u64) << 16) | (*hop as u64 & 0xFFFF)),
    };
    (class << 56) | (content & MINOR_CONTENT)
}

/// An engine for [`NetEvent`]s whose timers are the `Wake`s: payload `i`
/// is `Wake(i)`, under [`minor_of`]'s key for it.
pub(crate) fn new_engine() -> Engine<NetEvent> {
    Engine::with_timers(
        |source| NetEvent::Wake(source as usize),
        |source| minor_of(&NetEvent::Wake(source as usize)),
    )
}

/// Tie-break key of `link`'s transmission completion: class 2, after
/// commands and wakes at the same instant, before arrivals, deliveries
/// and detaches.
pub(crate) fn tx_minor(link: usize) -> u64 {
    (2 << 56) | (link as u64 & MINOR_CONTENT)
}

/// How far [`Network::step`] may advance the clock.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Until {
    /// Events at or before this time (a run horizon).
    Through(f64),
    /// Events strictly before this time (a conservative-epoch boundary).
    Before(f64),
}

/// What [`Network::step`] found due.
enum Due {
    /// A queued event, popped at its time.
    Event(f64, NetEvent),
    /// This link's pending completion.
    Completion(usize),
}

impl Until {
    /// The bound for one conservative epoch of a run to `horizon`:
    /// strictly before the epoch boundary, but inclusive of the horizon
    /// when the epoch reaches past it, as the sequential loop is.
    pub(crate) fn epoch(epoch_end: f64, horizon: f64) -> Self {
        if epoch_end <= horizon {
            Until::Before(epoch_end)
        } else {
            Until::Through(horizon)
        }
    }

    fn admits(self, t: f64) -> bool {
        match self {
            Until::Through(horizon) => t <= horizon,
            Until::Before(end) => t < end,
        }
    }
}

/// Per-link byte/packet conservation ledger, for multi-hop accounting
/// checks: at every link, `bytes_in == bytes_out + purged + queued`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkLedger {
    /// Bytes accepted into this link's hierarchy.
    pub bytes_in: u64,
    /// Bytes the link finished transmitting.
    pub bytes_out: u64,
    /// Bytes purged from this link's leaves (churn/quarantine) or dropped
    /// at a later-hop buffer of this link.
    pub bytes_purged: u64,
    /// Packets accepted into this link's hierarchy.
    pub packets_in: u64,
    /// Packets the link finished transmitting.
    pub packets_out: u64,
}

/// One output link: its hierarchy plus the in-flight transmission state.
pub(crate) struct Link<S: NodeScheduler, O: Observer> {
    pub(crate) server: Hierarchy<S, O>,
    /// Current service rate in bits/s (0 during an outage).
    pub(crate) rate: f64,
    /// Transmission start time of the in-flight packet.
    pub(crate) tx_start: f64,
    /// When the in-flight packet leaves the wire: the link's one pending
    /// completion. `None` while the link is idle or its transmission is
    /// suspended by an outage. A link has at most one
    /// completion outstanding, so it lives here instead of in the event
    /// queue; a rate change simply overwrites it.
    pub(crate) tx_done: Option<f64>,
    /// Bits of the in-flight packet not yet on the wire, as of
    /// `tx_updated`.
    pub(crate) tx_remaining_bits: f64,
    /// Time `tx_remaining_bits` was last brought up to date.
    pub(crate) tx_updated: f64,
    pub(crate) ledger: LinkLedger,
}

/// One attached source and its runtime state.
pub(crate) struct SourceSlot {
    /// The generator itself. `None` on shards that replicate this slot's
    /// routing metadata but do not own the source (parallel mode): the
    /// slot's `Wake`/`Deliver` events only ever fire on the owning shard.
    pub(crate) src: Option<Box<dyn Source>>,
    pub(crate) route: Route,
    /// Flow id registered for the source at attach time.
    pub(crate) flow: u32,
    /// `false` once the flow has been removed (churn) or quarantined:
    /// its timers and deliveries are discarded from then on. Only the
    /// owning shard's copy is authoritative; every path that reads it
    /// runs there.
    pub(crate) live: bool,
    /// Whether `start()` has run (sources start exactly once even across
    /// segmented [`Network::run`] calls).
    pub(crate) started: bool,
    /// [`Source::wants_delivery`], read when the source was attached.
    /// Cached here — and replicated to every shard — because the last
    /// hop, which decides whether to schedule a `Deliver`, may run on a
    /// shard that does not hold the source itself.
    pub(crate) wants_delivery: bool,
    /// Where [`SimStats`] keeps this flow's counters: the hint of
    /// [`crate::FlowMap::get_or_insert_hinted`], so a packet's records
    /// reach them without a lookup. Only a guess — checked on use, any
    /// value safe — so it is not part of a snapshot, and whatever rebuilds
    /// slots starts it at 0.
    pub(crate) stats_slot: u32,
}

/// A cross-shard event captured at its source shard, delivered to `dest`'s
/// engine at the next epoch barrier.
pub(crate) struct OutMsg {
    pub(crate) dest: usize,
    pub(crate) t: f64,
    pub(crate) minor: u64,
    pub(crate) ev: NetEvent,
}

/// Present only while a [`Network`] is acting as one shard of a parallel
/// run: identifies the shard and buffers outbound cross-shard events.
pub(crate) struct ShardCtx {
    pub(crate) id: usize,
    /// `link_shard[link]` = shard that owns `link`. Shared read-only.
    pub(crate) link_shard: std::sync::Arc<Vec<usize>>,
    pub(crate) outbox: Vec<OutMsg>,
}

/// A multi-link discrete-event simulation. Build each link's [`Hierarchy`]
/// first, [`Network::add_link`] them, attach routed sources, then
/// [`Network::run`].
///
/// Each hierarchy's [`Observer`] (second type parameter, default
/// [`NoopObserver`]) sees every scheduling event on its link; the network
/// adds the events only it can know: exact transmission times, buffer
/// drops, faults, and quarantines.
pub struct Network<S: NodeScheduler, O: Observer = NoopObserver> {
    /// `None` holes appear only in shard instances (parallel mode), for
    /// links owned by other shards; a sequential network's links are all
    /// `Some`.
    pub(crate) links: Vec<Option<Link<S, O>>>,
    pub(crate) engine: Engine<NetEvent>,
    pub(crate) sources: Vec<SourceSlot>,
    /// Every source below this index has `started` set, so
    /// [`Network::start_pending_sources`] begins its scan here instead of
    /// re-probing every slot on each [`Network::run`] segment. Zero is
    /// always valid; whatever rewrites `started` flags wholesale (snapshot
    /// restore, shard merge) resets it.
    pub(crate) started_below: usize,
    /// Statistics collector (network-wide; service records are written at
    /// a flow's **last** hop).
    pub stats: SimStats,
    /// Maps a flow id to the source that owns it (for delivery routing):
    /// an index over `sources`, keyed by each slot's own `flow`. Of two
    /// slots registered under one flow id it holds the later; built from
    /// `sources` in slot order it is always the same index.
    pub(crate) flow_owner: FlowIndex,
    pub(crate) injector: Option<Box<dyn FaultInjector>>,
    pub(crate) policy: EscalationPolicy,
    pub(crate) escalation: EscalationState,
    pub(crate) halted: bool,
    /// Bytes currently propagating between hops (transmitted at hop *i*,
    /// not yet admitted at hop *i+1*). Signed because a shard may admit
    /// bytes another shard transmitted: its local delta can be negative;
    /// the merged network-wide value never is.
    pub(crate) inflight_bytes: i64,
    /// Commands that could not be applied (e.g. adding a flow whose share
    /// would overflow its parent): `(time, error)` pairs. The run
    /// continues — a rejected command is degraded service, not a crash.
    pub command_errors: Vec<(f64, HpfqError)>,
    /// Set only while this network is one shard of a parallel run.
    pub(crate) shard: Option<ShardCtx>,
    /// Wall-clock span profiler over engine phases. With the `profile`
    /// cargo feature off this is a ZST whose probes compile away.
    pub(crate) profiler: SpanProfiler,
    /// When `true`, parallel runs log one [`EpochSpan`] per shard epoch.
    pub(crate) record_epochs: bool,
    /// Epoch windows recorded by parallel runs (shard order after merge).
    pub(crate) epoch_log: Vec<EpochSpan>,
    /// Per-shard span snapshots collected by the last parallel merge
    /// (empty for sequential runs, and when `profile` is off).
    pub(crate) shard_spans: Vec<SpanSnapshot>,
    /// Conservative epochs per supervised stint of a parallel run: shards
    /// merge back into the master and the epoch checkpoint is refreshed
    /// every this-many epochs. `0` means one unbounded stint (a single
    /// checkpoint at the start of the run).
    pub(crate) stint_epochs: u64,
    /// Barrier watchdog for parallel runs: a worker stuck at the two-phase
    /// exchange longer than this poisons the barrier, converting a wedged
    /// run into a typed [`crate::ShardFailure::BarrierTimeout`].
    pub(crate) watchdog: std::time::Duration,
    /// Test hook: `(shard, global epoch)` at which that shard's worker
    /// panics — armed only on the first attempt of the covering stint, so
    /// a checkpointed run recovers on retry.
    pub(crate) panic_plan: Option<(usize, u64)>,
    /// The last epoch checkpoint a parallel run held when it returned —
    /// on a halt or exhausted retry budget, the state to resume from.
    /// Diagnostic only: not itself part of snapshots.
    pub(crate) last_checkpoint: Option<Value>,
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
            injector: None,
            policy: EscalationPolicy::warn_only(),
            escalation: EscalationState::new(),
            halted: false,
            inflight_bytes: 0,
            command_errors: Vec::new(),
            shard: None,
            profiler: SpanProfiler::new(),
            record_epochs: false,
            epoch_log: Vec::new(),
            shard_spans: Vec::new(),
            stint_epochs: 64,
            watchdog: std::time::Duration::from_secs(10),
            panic_plan: None,
            last_checkpoint: None,
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

    /// `link`, which must be owned by this network (or this shard of it).
    /// Event routing guarantees handlers only touch owned links; a miss
    /// here is a routing bug, not a runtime condition to degrade through.
    #[track_caller]
    pub(crate) fn link(&self, link: usize) -> &Link<S, O> {
        self.links[link]
            .as_ref()
            // lint:allow(L002): shard routing invariant — an event for a
            // non-owned link can only reach here through a bug in
            // `event_shard`, which the determinism tests would surface;
            // there is no sensible degraded behaviour for a misrouted
            // borrow.
            .expect("link owned by another shard")
    }

    /// Mutable [`Network::link`].
    #[track_caller]
    pub(crate) fn link_mut(&mut self, link: usize) -> &mut Link<S, O> {
        self.links[link]
            .as_mut()
            // lint:allow(L002): see `link` — shard routing invariant.
            .expect("link owned by another shard")
    }

    /// Adds an output link scheduled by the fully built `server` hierarchy
    /// and returns its link index. The hierarchy's emitted events are
    /// re-stamped with that index, so a shared observer can tell links
    /// apart in a merged trace.
    pub fn add_link(&mut self, mut server: Hierarchy<S, O>) -> usize {
        let idx = self.links.len();
        server.set_link_id(idx);
        let rate = server.link_rate();
        self.links.push(Some(Link {
            server,
            rate,
            tx_start: 0.0,
            tx_done: None,
            tx_remaining_bits: 0.0,
            tx_updated: 0.0,
            ledger: LinkLedger::default(),
        }));
        idx
    }

    /// Installs a fault injector consulted at packet admission and timer
    /// scheduling. Replaces any previous injector.
    pub fn set_fault_injector(&mut self, inj: impl FaultInjector + 'static) {
        self.injector = Some(Box::new(inj));
    }

    /// Sets the degradation ladder for misbehaving flows. The default is
    /// [`EscalationPolicy::warn_only`]: invalid packets are dropped and
    /// recorded but flows are never quarantined.
    pub fn set_escalation_policy(&mut self, policy: EscalationPolicy) {
        self.policy = policy;
    }

    /// The escalation ladder's current state (strikes, quarantine roster).
    pub fn escalation(&self) -> &EscalationState {
        &self.escalation
    }

    /// Whether the escalation ladder halted the run ([`Network::run`]
    /// returns early once this is set).
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// `link`'s current service rate in bits/s (0 during an outage).
    pub fn link_rate(&self, link: usize) -> f64 {
        self.link(link).rate
    }

    /// Read access to `link`'s hierarchy (e.g. for queue inspection).
    pub fn link_server(&self, link: usize) -> &Hierarchy<S, O> {
        &self.link(link).server
    }

    /// `link`'s conservation ledger.
    pub fn link_ledger(&self, link: usize) -> LinkLedger {
        self.link(link).ledger
    }

    /// `link`'s observer.
    pub fn observer_of(&self, link: usize) -> &O {
        self.link(link).server.observer()
    }

    /// `link`'s observer, mutably (e.g. to flush or read counters).
    pub fn observer_of_mut(&mut self, link: usize) -> &mut O {
        self.link_mut(link).server.observer_mut()
    }

    /// Consumes the network, returning every link's observer in link
    /// order.
    pub fn into_observers(self) -> Vec<O> {
        self.links
            .into_iter()
            .flatten()
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
                self.link(hop.link).server.is_leaf(hop.leaf),
                "route must attach to a leaf"
            );
        }
        SourceId(self.push_source(SourceSlot {
            wants_delivery: source.wants_delivery(),
            src: Some(Box::new(source)),
            route,
            flow,
            live: true,
            started: false,
            stats_slot: 0,
        }))
    }

    /// Appends `slot` and makes it the owner of its flow id; returns its
    /// index.
    pub(crate) fn push_source(&mut self, slot: SourceSlot) -> usize {
        let idx = self.sources.len();
        let flow = slot.flow;
        self.sources.push(slot);
        self.flow_owner.insert(flow, idx, |i| self.sources[i].flow);
        idx
    }

    /// The source registered (last) under `flow`.
    pub(crate) fn owner_of(&self, flow: u32) -> Option<usize> {
        self.flow_owner.get(flow, |i| self.sources[i].flow)
    }

    /// Schedules a control-plane [`SimCommand`] to fire at time `t` (times
    /// in the past fire immediately once the run reaches them).
    pub fn schedule_command(&mut self, t: f64, cmd: SimCommand) {
        self.send(t, NetEvent::Command(cmd));
    }

    /// Shard that should process `ev`. Every event is routed to the shard
    /// owning the link (or the source's first-hop link) it mutates, so
    /// handlers never touch state owned by another shard.
    pub(crate) fn event_shard(&self, link_shard: &[usize], ev: &NetEvent) -> usize {
        let of_src = |s: usize| link_shard[self.sources[s].route.hops[0].link];
        match ev {
            NetEvent::Wake(i) => of_src(*i),
            NetEvent::Deliver(i, _) => of_src(*i),
            NetEvent::Arrive { src, hop, .. } | NetEvent::Detach { src, hop, .. } => {
                link_shard[self.sources[*src].route.hops[*hop].link]
            }
            NetEvent::Command(cmd) => match cmd {
                SimCommand::SetLinkRate(_) | SimCommand::AddFlow { .. } => link_shard[0],
                SimCommand::SetLinkRateOn { link, .. } => {
                    // An out-of-range link is reported as a command error
                    // by whichever shard receives it; route to shard 0.
                    link_shard.get(*link).copied().unwrap_or(link_shard[0])
                }
                SimCommand::RemoveFlow(flow) => self.owner_of(*flow).map_or(link_shard[0], of_src),
            },
        }
    }

    /// Schedules `ev` at `t` with its content-derived minor key — locally,
    /// or into the cross-shard outbox when this network is a shard and the
    /// event belongs to another shard.
    pub(crate) fn send(&mut self, t: f64, ev: NetEvent) {
        let cross = match &self.shard {
            Some(ctx) => {
                let dest = self.event_shard(&ctx.link_shard, &ev);
                (dest != ctx.id).then_some(dest)
            }
            None => None,
        };
        match (cross, self.shard.as_mut()) {
            (Some(dest), Some(ctx)) => ctx.outbox.push(OutMsg {
                dest,
                t,
                minor: minor_of(&ev),
                ev,
            }),
            _ => self.queue_event(t, ev),
        }
    }

    /// Puts `ev` into this network's own engine: a `Wake` as a timer,
    /// anything else in the arena under its [`minor_of`] key. The one way
    /// in, for new events ([`Network::send`]) and for those a snapshot, a
    /// restore, or a shard split, exchange or merge moves between engines.
    pub(crate) fn queue_event(&mut self, t: f64, ev: NetEvent) {
        match ev {
            NetEvent::Wake(i) => {
                let source = u32::try_from(i)
                    // lint:allow(L002): a `Wake` names a source this network
                    // holds (restore checks a snapshot's), and 2^32 source
                    // slots are 256 GiB
                    .expect("source index fits the 32-bit timer payload");
                self.engine.schedule_timer(t, source);
            }
            ev => self.engine.schedule_keyed(t, minor_of(&ev), ev),
        }
    }

    fn emit_fault(&mut self, link: usize, kind: FaultKind, node: usize, flow: u32, value: f64) {
        if O::ENABLED {
            let ev = FaultEvent {
                time: self.engine.now(),
                link,
                kind,
                node,
                flow,
                value,
            };
            self.link_mut(link).server.observer_mut().on_fault(&ev);
        }
    }

    fn apply_output(&mut self, src_idx: usize, out: SourceOutput) {
        let now = self.engine.now();
        let flow = self.sources[src_idx].flow;
        let ingress = self.sources[src_idx].route.hops[0];
        for w in out.wakes {
            let mut wake = w;
            if let Some(inj) = self.injector.as_mut() {
                wake = inj.jitter(now, flow, w);
                if wake != w {
                    self.emit_fault(ingress.link, FaultKind::ClockJitter, 0, flow, wake - w);
                }
            }
            self.send(wake.max(now), NetEvent::Wake(src_idx));
        }
        for mut pkt in out.packets {
            pkt.arrival = now;
            let verdict = self
                .injector
                .as_mut()
                .map_or(PacketVerdict::Pass, |inj| inj.on_packet(now, &mut pkt));
            // "Offered" is what reaches the network's ingress port —
            // recorded after corruption so the byte ledger matches what
            // was seen.
            self.stats
                .record_arrival_at(&mut self.sources[src_idx].stats_slot, &pkt);
            match verdict {
                PacketVerdict::Pass => {}
                PacketVerdict::Drop => {
                    self.stats.record_fault_drop(&pkt);
                    self.emit_fault(
                        ingress.link,
                        FaultKind::PacketDrop,
                        ingress.leaf.index(),
                        pkt.flow,
                        f64::from(pkt.len_bytes),
                    );
                    continue;
                }
                PacketVerdict::Corrupted => {
                    self.emit_fault(
                        ingress.link,
                        FaultKind::PacketCorrupt,
                        ingress.leaf.index(),
                        pkt.flow,
                        f64::from(pkt.len_bytes),
                    );
                }
            }
            // Degradation layer: malformed packets never reach the
            // scheduler maths — they are dropped here and strike the flow.
            if pkt.validate().is_err() {
                self.stats.record_fault_drop(&pkt);
                self.emit_fault(
                    ingress.link,
                    FaultKind::InvalidPacket,
                    ingress.leaf.index(),
                    pkt.flow,
                    f64::from(pkt.len_bytes),
                );
                self.strike(pkt.flow);
                if self.halted {
                    return;
                }
                continue;
            }
            if let Some(limit) = ingress.buffer_bytes {
                let queued = self
                    .link(ingress.link)
                    .server
                    .leaf_queue_bytes(ingress.leaf);
                if queued + u64::from(pkt.len_bytes) > limit {
                    self.stats.record_drop(&pkt);
                    if O::ENABLED {
                        let ev = DropEvent {
                            time: now,
                            link: ingress.link,
                            leaf: ingress.leaf.index(),
                            pkt: PacketInfo {
                                id: pkt.id,
                                flow: pkt.flow,
                                len_bytes: pkt.len_bytes,
                                arrival: pkt.arrival,
                            },
                            queue_bytes: queued,
                        };
                        self.link_mut(ingress.link)
                            .server
                            .observer_mut()
                            .on_drop(&ev);
                    }
                    continue;
                }
            }
            if SpanProfiler::ENABLED {
                self.profiler.span_enter(SpanKind::Enqueue);
            }
            let admitted = self
                .link_mut(ingress.link)
                .server
                .try_enqueue(ingress.leaf, pkt);
            if SpanProfiler::ENABLED {
                self.profiler.span_exit(SpanKind::Enqueue);
            }
            match admitted {
                Ok(()) => {
                    self.stats
                        .record_accept_at(&mut self.sources[src_idx].stats_slot, &pkt);
                    let l = &mut self.link_mut(ingress.link).ledger;
                    l.bytes_in += u64::from(pkt.len_bytes);
                    l.packets_in += 1;
                }
                // The leaf vanished between emission and admission (e.g.
                // quarantined while this packet was being generated):
                // account the packet as fault-dropped and move on.
                Err(_) => {
                    self.stats.record_fault_drop(&pkt);
                    self.emit_fault(
                        ingress.link,
                        FaultKind::PacketDrop,
                        ingress.leaf.index(),
                        pkt.flow,
                        f64::from(pkt.len_bytes),
                    );
                }
            }
        }
        if SpanProfiler::ENABLED {
            self.profiler.span_enter(SpanKind::Dispatch);
        }
        self.try_start(ingress.link);
        if SpanProfiler::ENABLED {
            self.profiler.span_exit(SpanKind::Dispatch);
        }
    }

    fn try_start(&mut self, link: usize) {
        let halted = self.halted;
        let now = self.engine.now();
        let l = self.link_mut(link);
        if l.rate <= 0.0 || halted || l.server.is_transmitting() || !l.server.has_pending() {
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
    /// a later call restores a positive rate.
    fn set_link_rate(&mut self, link: usize, new_rate: f64) {
        let now = self.engine.now();
        if !is_link_rate(new_rate) {
            self.command_errors
                .push((now, HpfqError::InvalidRate(new_rate)));
            return;
        }
        let l = self.link_mut(link);
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

    /// Records one incident against `flow` and applies the escalation
    /// ladder's response: warn (no-op beyond the strike count), quarantine
    /// (the flow's leaves are removed at every hop and their queues
    /// purged), or halt (the run stops at the current event). Returns the
    /// level applied.
    ///
    /// Invalid packets strike automatically at admission; harnesses call
    /// this directly to escalate externally detected misbehaviour (e.g. an
    /// invariant-check violation attributed to a flow).
    pub fn strike(&mut self, flow: u32) -> EscalationLevel {
        let level = self.escalation.strike(&self.policy, flow);
        match level {
            EscalationLevel::Warn => {}
            EscalationLevel::Quarantine => self.quarantine(flow),
            EscalationLevel::Halt => {
                // Halt still isolates the offending flow so a post-mortem
                // inspection sees a consistent tree.
                self.quarantine(flow);
                self.halted = true;
            }
        }
        level
    }

    /// Stops `flow`'s source and tears its route down: the first hop's
    /// leaf is removed immediately, downstream hops when the teardown
    /// signal propagates to them (see [`NetEvent::Detach`]). Single-hop
    /// routes therefore behave exactly as the historical instantaneous
    /// quarantine did.
    fn quarantine(&mut self, flow: u32) {
        let Some(idx) = self.owner_of(flow) else {
            return;
        };
        if !self.sources[idx].live {
            return;
        }
        self.sources[idx].live = false;
        let strikes = self.escalation.strikes(flow);
        self.detach_route(idx, DetachReason::Quarantine { strikes });
    }

    /// Detaches hop 0 of `src`'s route now and schedules [`NetEvent::
    /// Detach`] for each downstream hop at the route's cumulative
    /// propagation delay. The delay keeps teardown causal with the data
    /// path — and, in parallel runs, at or above the conservative
    /// lookahead of any shard boundary the signal crosses.
    fn detach_route(&mut self, src: usize, reason: DetachReason) {
        let now = self.engine.now();
        self.detach_hop(src, 0, reason);
        let n_hops = self.sources[src].route.hops.len();
        let mut delay = 0.0;
        for hop in 1..n_hops {
            delay += self.sources[src].route.hops[hop - 1].prop_delay;
            self.send(now + delay, NetEvent::Detach { src, hop, reason });
        }
    }

    /// Removes the leaf at hop `hop_idx` of `src`'s route, purging and
    /// accounting its queued packets.
    fn detach_hop(&mut self, src: usize, hop_idx: usize, reason: DetachReason) {
        let now = self.engine.now();
        let flow = self.sources[src].flow;
        let hop = self.sources[src].route.hops[hop_idx];
        // Captured before removal: churn reports the share being freed.
        let phi = self.link(hop.link).server.phi(hop.leaf);
        match self.link_mut(hop.link).server.remove_leaf(hop.leaf) {
            Ok(purged) => {
                let mut purged_packets = 0u64;
                let mut purged_bytes = 0u64;
                for p in &purged {
                    self.stats.record_purge(p);
                    purged_packets += 1;
                    purged_bytes += u64::from(p.len_bytes);
                }
                self.link_mut(hop.link).ledger.bytes_purged += purged_bytes;
                match reason {
                    DetachReason::Quarantine { strikes } => {
                        if O::ENABLED {
                            let ev = QuarantineEvent {
                                time: now,
                                link: hop.link,
                                leaf: hop.leaf.index(),
                                flow,
                                strikes,
                                purged_packets,
                                purged_bytes,
                            };
                            self.link_mut(hop.link)
                                .server
                                .observer_mut()
                                .on_quarantine(&ev);
                        }
                    }
                    DetachReason::Churn => {
                        self.emit_fault(
                            hop.link,
                            FaultKind::FlowRemove,
                            hop.leaf.index(),
                            flow,
                            phi,
                        );
                    }
                }
            }
            Err(e) => self.command_errors.push((now, e)),
        }
    }

    fn apply_command(&mut self, cmd: SimCommand) {
        let now = self.engine.now();
        match cmd {
            SimCommand::SetLinkRate(bps) => self.rate_command(0, bps),
            SimCommand::SetLinkRateOn { link, bps } => {
                if link >= self.links.len() {
                    self.command_errors
                        .push((now, HpfqError::UnknownNode(link)));
                    return;
                }
                self.rate_command(link, bps);
            }
            SimCommand::AddFlow {
                parent,
                phi,
                flow,
                source,
                buffer_bytes,
                delivery_delay,
            } => match self.link_mut(0).server.add_leaf(parent, phi) {
                Ok(leaf) => {
                    let idx = self.push_source(SourceSlot {
                        wants_delivery: source.wants_delivery(),
                        src: Some(source),
                        route: Route::single(leaf, buffer_bytes, delivery_delay),
                        flow,
                        live: true,
                        started: true,
                        stats_slot: 0,
                    });
                    self.emit_fault(0, FaultKind::FlowAdd, leaf.index(), flow, phi);
                    let out = match self.sources[idx].src.as_mut() {
                        Some(src) => src.start(),
                        None => SourceOutput::none(),
                    };
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
                self.detach_route(idx, DetachReason::Churn);
            }
        }
    }

    fn rate_command(&mut self, link: usize, bps: f64) {
        let kind = if bps == 0.0 {
            FaultKind::LinkDown
        } else if self.link(link).rate == 0.0 {
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
        // A removed/quarantined flow's leaf disappears from this hop when
        // the Detach event lands here; until then bytes already on the
        // wire are admitted normally (they will be purged with the leaf).
        // Keying the decision on local leaf state — never on the owner
        // shard's `live` flag — is what keeps sequential and parallel
        // runs identical.
        pkt.arrival = now;
        if let Some(limit) = hop.buffer_bytes {
            let queued = self.link(hop.link).server.leaf_queue_bytes(hop.leaf);
            if queued + u64::from(pkt.len_bytes) > limit {
                self.stats.record_purge(&pkt);
                if O::ENABLED {
                    let ev = DropEvent {
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
                    };
                    self.link_mut(hop.link).server.observer_mut().on_drop(&ev);
                }
                return;
            }
        }
        if SpanProfiler::ENABLED {
            self.profiler.span_enter(SpanKind::Enqueue);
        }
        let admitted = self.link_mut(hop.link).server.try_enqueue(hop.leaf, pkt);
        if SpanProfiler::ENABLED {
            self.profiler.span_exit(SpanKind::Enqueue);
        }
        match admitted {
            Ok(()) => {
                let l = &mut self.link_mut(hop.link).ledger;
                l.bytes_in += u64::from(pkt.len_bytes);
                l.packets_in += 1;
            }
            Err(_) => {
                self.stats.record_purge(&pkt);
                self.emit_fault(
                    hop.link,
                    FaultKind::PacketDrop,
                    hop.leaf.index(),
                    pkt.flow,
                    f64::from(pkt.len_bytes),
                );
            }
        }
        if SpanProfiler::ENABLED {
            self.profiler.span_enter(SpanKind::Dispatch);
        }
        self.try_start(hop.link);
        if SpanProfiler::ENABLED {
            self.profiler.span_exit(SpanKind::Dispatch);
        }
    }

    /// `link`'s pending completion came due: the in-flight packet has left
    /// the wire.
    fn tx_complete(&mut self, link: usize) {
        let t = self.engine.now();
        if SpanProfiler::ENABLED {
            self.profiler.span_enter(SpanKind::Vclock);
        }
        let l = self.link_mut(link);
        let pkt = l.server.complete_transmission_at(t);
        let started = l.tx_start;
        if SpanProfiler::ENABLED {
            self.profiler.span_exit(SpanKind::Vclock);
        }
        {
            let l = &mut self.link_mut(link).ledger;
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
                    self.send(
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
                    // scheduled — the owner-side handler drops it if the
                    // flow has since been removed, so that decision is
                    // made where the `live` flag is authoritative (its
                    // owning shard, in parallel runs). For a source whose
                    // `on_delivered` is the default no-op the event would
                    // change nothing, so none is scheduled.
                    let delay = route.hops.last().map(|h| h.prop_delay).unwrap_or(0.0);
                    let slot = &mut self.sources[owner];
                    self.stats.record_service_at(&mut slot.stats_slot, served);
                    if slot.wants_delivery {
                        self.send(t + delay, NetEvent::Deliver(owner, pkt));
                    }
                }
            }
        } else {
            // No owner (should not happen): count the service at this
            // link as final.
            self.stats.record_service(served);
        }
        if SpanProfiler::ENABLED {
            self.profiler.span_enter(SpanKind::Dispatch);
        }
        self.try_start(link);
        if SpanProfiler::ENABLED {
            self.profiler.span_exit(SpanKind::Dispatch);
        }
    }

    /// Runs the simulation until `horizon` seconds (events strictly after
    /// the horizon are left unprocessed), until no events remain, or until
    /// the escalation ladder halts the run. May be called repeatedly with
    /// growing horizons to run in segments; sources are started once.
    pub fn run(&mut self, horizon: f64) {
        self.start_pending_sources();
        while !self.halted && self.step(Until::Through(horizon)) {}
        // Unfired events past the horizon stay queued so a subsequent
        // `run` with a larger horizon continues cleanly.
    }

    /// The link whose pending completion is earliest, with its time.
    /// Equal times go to the lower link index, as [`tx_minor`] orders them.
    fn next_completion(&self) -> Option<(f64, usize)> {
        let mut next: Option<(f64, usize)> = None;
        for (i, link) in self.links.iter().enumerate() {
            if let Some(t) = link.as_ref().and_then(|l| l.tx_done) {
                if next.is_none_or(|(best, _)| t < best) {
                    next = Some((t, i));
                }
            }
        }
        next
    }

    /// Time of the next thing [`Network::step`] would do: the earlier of
    /// the queue head and the earliest link completion.
    pub(crate) fn next_event_time(&self) -> Option<f64> {
        let done = self.next_completion().map(|(t, _)| t);
        match (self.engine.peek_time(), done) {
            (Some(head), Some(done)) => Some(head.min(done)),
            (head, done) => head.or(done),
        }
    }

    /// Advances the simulation by one event within `until`; `false` when
    /// nothing is due. The one pop used by the sequential loop and both
    /// parallel epoch drivers.
    pub(crate) fn step(&mut self, until: Until) -> bool {
        if SpanProfiler::ENABLED {
            self.profiler.span_enter(SpanKind::EventPop);
        }
        let due = self.pop_due(until);
        if SpanProfiler::ENABLED {
            self.profiler.span_exit(SpanKind::EventPop);
        }
        let Some(due) = due else {
            return false;
        };
        if SpanProfiler::ENABLED {
            self.profiler.span_enter(SpanKind::EventHandle);
        }
        match due {
            Due::Event(t, ev) => self.handle(t, ev),
            Due::Completion(link) => self.tx_complete(link),
        }
        if SpanProfiler::ENABLED {
            self.profiler.span_exit(SpanKind::EventHandle);
        }
        true
    }

    /// Takes the earlier, in `(time, minor key)` order, of the queue head
    /// and the earliest link completion, advancing the clock to it — or
    /// leaves both pending when that one lies beyond `until`.
    fn pop_due(&mut self, until: Until) -> Option<Due> {
        if let Some((done, link)) = self.next_completion() {
            // Never a tie: no queued event carries the completion class.
            let first = self
                .engine
                .peek_key()
                .is_none_or(|head| (done, tx_minor(link)) < head);
            if first {
                if !until.admits(done) {
                    return None;
                }
                self.link_mut(link).tx_done = None;
                self.engine.advance_to(done);
                return Some(Due::Completion(link));
            }
        }
        match until {
            Until::Through(horizon) => self.engine.pop_due(horizon),
            Until::Before(end) => self.engine.pop_strictly_before(end),
        }
        .map(|(t, ev)| Due::Event(t, ev))
    }

    /// Starts any sources not yet started (first call, or sources attached
    /// between run segments).
    pub(crate) fn start_pending_sources(&mut self) {
        self.stats.reserve_flows(self.flow_owner.len());
        let pending = self.started_below..self.sources.len();
        self.started_below = pending.end;
        for i in pending {
            if !self.sources[i].started {
                self.sources[i].started = true;
                let out = match self.sources[i].src.as_mut() {
                    Some(src) => src.start(),
                    None => continue,
                };
                debug_assert!(out.packets.is_empty(), "start() must not emit packets");
                self.apply_output(i, out);
            }
        }
    }

    /// Dispatches one popped event. Shared by the sequential loop and the
    /// parallel epoch driver so both modes run identical handler code.
    pub(crate) fn handle(&mut self, t: f64, ev: NetEvent) {
        match ev {
            NetEvent::Wake(i) => {
                if !self.sources[i].live {
                    return;
                }
                let out = match self.sources[i].src.as_mut() {
                    Some(src) => src.on_wake(t),
                    None => return,
                };
                self.apply_output(i, out);
            }
            NetEvent::Arrive { src, hop, pkt } => self.arrive(src, hop, pkt),
            NetEvent::Deliver(i, pkt) => {
                if !self.sources[i].live {
                    return;
                }
                let out = match self.sources[i].src.as_mut() {
                    Some(src) => src.on_delivered(t, &pkt),
                    None => return,
                };
                self.apply_output(i, out);
            }
            NetEvent::Command(cmd) => self.apply_command(cmd),
            NetEvent::Detach { src, hop, reason } => self.detach_hop(src, hop, reason),
        }
    }

    /// Bytes currently queued at `link`: its leaf queues, including any
    /// in-flight packet, which stays in its leaf queue until completion.
    pub fn queued_bytes_on(&self, link: usize) -> u64 {
        let l = self.link(link);
        l.server
            .leaves_iter()
            .map(|leaf| l.server.leaf_queue_bytes(leaf))
            .sum()
    }

    /// Bytes currently queued across every link this network (or shard)
    /// owns.
    pub fn queued_bytes(&self) -> u64 {
        (0..self.links.len())
            .filter(|&i| self.links[i].is_some())
            .map(|i| self.queued_bytes_on(i))
            .sum()
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
            let Some(link) = link else { continue };
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

    /// Aggregated wall-clock span timings recorded so far: the sequential
    /// engine's own samples plus, after [`Network::run_parallel`], every
    /// worker shard's (absorbed at merge). Empty unless the crate was
    /// built with the `profile` feature.
    pub fn span_snapshot(&self) -> SpanSnapshot {
        self.profiler.snapshot()
    }

    /// Per-shard span snapshots from the last parallel run, in shard
    /// order. Empty for sequential runs and when `profile` is off.
    pub fn shard_span_snapshots(&self) -> &[SpanSnapshot] {
        &self.shard_spans
    }

    /// Enables (or disables) per-epoch logging for parallel runs: each
    /// shard records one [`EpochSpan`] per conservative epoch window.
    /// Unlike span timing this is a runtime switch — epochs are stamped
    /// with *simulation* time, so recording them is deterministic and
    /// needs no feature gate.
    pub fn set_record_epochs(&mut self, on: bool) {
        self.record_epochs = on;
    }

    /// Epoch windows logged by parallel runs (shard-major order after the
    /// merge). Empty unless [`Network::set_record_epochs`] was called.
    pub fn epoch_log(&self) -> &[EpochSpan] {
        &self.epoch_log
    }

    /// Renders [`Network::span_snapshot`] as a fixed-width text table.
    pub fn span_report(&self) -> String {
        self.profiler.snapshot().report_text("network")
    }

    /// Sets how many conservative epochs a parallel run executes per
    /// supervised stint: at each stint boundary the shards merge back into
    /// the master and the epoch checkpoint is refreshed, bounding how much
    /// work a crash rollback can lose. Default 64; `0` means a single
    /// unbounded stint (one checkpoint at the start of the run).
    pub fn set_stint_epochs(&mut self, epochs: u64) {
        self.stint_epochs = epochs;
    }

    /// Sets the watchdog timeout for the parallel runtime's two-barrier
    /// exchange (default 10 s). A worker waiting longer than this — its
    /// peer died or wedged — poisons the barrier; the stint fails with a
    /// typed [`crate::ShardFailure`] instead of hanging, and the
    /// supervisor rolls back to the last checkpoint.
    pub fn set_watchdog(&mut self, timeout: std::time::Duration) {
        self.watchdog = timeout;
    }

    /// Arms a one-shot injected panic: the worker for `shard` panics when
    /// the global epoch counter reaches `epoch` — on the **first** attempt
    /// of the stint containing that epoch only, so a checkpointed run
    /// recovers on retry. The crash-recovery tests and the CI soak use
    /// this to prove panic containment end to end.
    pub fn inject_shard_panic(&mut self, shard: usize, epoch: u64) {
        self.panic_plan = Some((shard, epoch));
    }

    /// The last epoch checkpoint the most recent parallel run held when it
    /// returned: after a clean run, the final stint-boundary refresh; after
    /// a halt replay or an exhausted retry budget, the exact state the run
    /// was rolled back to. `None` until a checkpointed parallel run has
    /// completed. Harnesses attach its serialized bytes to a
    /// [`hpfq_obs::FlightRecorder`] so post-mortem dumps carry the state to
    /// resume from.
    pub fn last_checkpoint(&self) -> Option<&Value> {
        self.last_checkpoint.as_ref()
    }
}
