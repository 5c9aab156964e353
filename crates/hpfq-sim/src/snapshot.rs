//! Deterministic whole-network checkpoints.
//!
//! [`Network::snapshot`] captures *everything* the event loop's future
//! depends on — per-link hierarchies and transmission state (each link's
//! pending completion included), the event queue, statistics, ledgers,
//! escalation state, source generators (RNG streams, plan cursors), and
//! the fault injector — as one [`Value`] tree; what a restore rebuilds
//! exactly (tie-break keys, the flow-owner index) is left out. The tree serializes
//! byte-deterministically ([`Value::to_bytes`]), so two identical runs
//! checkpointed at the same instant produce identical bytes.
//!
//! The proof obligation the format is designed around:
//!
//! ```text
//! run(0..T)  ≡  run(0..t) → snapshot → restore → run(t..T)
//! ```
//!
//! on statistics, service records, ledgers, and the merged trace.
//!
//! Restoring accepts three situations:
//!
//! * the same network object later in its life (rollback) — churn the
//!   live tree accrued after the checkpoint is discarded;
//! * a freshly rebuilt network with the same topology (resume from a
//!   persisted snapshot) — churn the snapshot accrued after the build is
//!   re-created;
//! * the degenerate identity restore.

use hpfq_core::{Hierarchy, HierarchyState, HpfqError, NodeId, NodeScheduler, Packet};
use hpfq_obs::snap::{refuse, SnapError, Value};
use hpfq_obs::{EscalationPolicy, EscalationState, Observer};

use crate::flow_map::FlowIndex;
use crate::network::{
    is_delay, is_link_rate, DetachReason, Hop, LinkLedger, NetEvent, Network, Route, SimCommand,
    SourceSlot,
};
use crate::source::{load_source, Few};
use crate::stats::SimStats;

/// Format version stamped into every snapshot. Version 2 moved each
/// link's pending completion out of the event list into the link's
/// `tx_done` field (replacing `tx_epoch` and the `"tx"` event tag) and
/// added `wants_delivery` to source slots; version 3 dropped the per-link
/// `train` list; version 4 stopped storing what a restore rebuilds with
/// the code a run uses — event tie-break keys, the flow-owner list,
/// session inverse rates, leaf byte counts and round-robin quanta.
/// [`Network::restore`] rejects any other version with a typed error.
pub const SNAPSHOT_VERSION: u64 = 4;

fn save_opt_u64(v: Option<u64>) -> Value {
    match v {
        Some(n) => Value::U64(n),
        None => Value::Null,
    }
}

fn load_opt_u64(v: &Value) -> Result<Option<u64>, SnapError> {
    if v.is_null() {
        Ok(None)
    } else {
        Ok(Some(v.as_u64()?))
    }
}

pub(crate) fn fixed_list<'a>(v: &'a Value, n: usize, what: &str) -> Result<&'a [Value], SnapError> {
    match v.items()? {
        items if items.len() == n => Ok(items),
        items => Err(refuse(format!(
            "{what} has {} fields, expected {n}",
            items.len()
        ))),
    }
}

fn tagged(v: &Value, what: &str) -> Result<(String, Vec<Value>), SnapError> {
    let items = v.items()?;
    let Some((tag, rest)) = items.split_first() else {
        return Err(refuse(format!("{what} is an empty list")));
    };
    Ok((tag.as_str()?.to_string(), rest.to_vec()))
}

// --- ledgers -------------------------------------------------------------

pub(crate) fn save_ledger(l: &LinkLedger) -> Value {
    Value::List(vec![
        Value::U64(l.bytes_in),
        Value::U64(l.bytes_out),
        Value::U64(l.bytes_purged),
        Value::U64(l.packets_in),
        Value::U64(l.packets_out),
    ])
}

pub(crate) fn load_ledger(v: &Value) -> Result<LinkLedger, SnapError> {
    let f = fixed_list(v, 5, "link ledger")?;
    Ok(LinkLedger {
        bytes_in: f[0].as_counter()?,
        bytes_out: f[1].as_counter()?,
        bytes_purged: f[2].as_counter()?,
        packets_in: f[3].as_counter()?,
        packets_out: f[4].as_counter()?,
    })
}

// --- routes --------------------------------------------------------------

fn save_hop(h: &Hop) -> Value {
    Value::List(vec![
        Value::U64(h.link as u64),
        Value::U64(h.leaf.index() as u64),
        save_opt_u64(h.buffer_bytes),
        Value::F64(h.prop_delay),
    ])
}

fn load_hop(v: &Value) -> Result<Hop, SnapError> {
    let f = fixed_list(v, 4, "route hop")?;
    Ok(Hop {
        link: f[0].as_usize()?,
        leaf: NodeId(f[1].as_usize()?),
        buffer_bytes: load_opt_u64(&f[2])?,
        prop_delay: f[3].as_f64()?,
    })
}

pub(crate) fn save_route(r: &Route) -> Value {
    Value::List(r.hops.iter().map(save_hop).collect())
}

pub(crate) fn load_route(v: &Value) -> Result<Route, SnapError> {
    let hops = v
        .items()?
        .iter()
        .map(load_hop)
        .collect::<Result<Few<_>, _>>()?;
    let route = Route { hops };
    route.check().map_err(refuse)?;
    Ok(route)
}

// --- detach reasons ------------------------------------------------------

fn save_reason(r: &DetachReason) -> Value {
    match r {
        DetachReason::Quarantine { strikes } => Value::List(vec![
            Value::Str("quarantine".into()),
            Value::U64(u64::from(*strikes)),
        ]),
        DetachReason::Churn => Value::List(vec![Value::Str("churn".into())]),
    }
}

fn load_reason(v: &Value) -> Result<DetachReason, SnapError> {
    let (tag, rest) = tagged(v, "detach reason")?;
    match tag.as_str() {
        "quarantine" if rest.len() == 1 => Ok(DetachReason::Quarantine {
            strikes: rest[0].as_u32()?,
        }),
        "churn" if rest.is_empty() => Ok(DetachReason::Churn),
        _ => Err(refuse(format!("unknown detach reason '{tag}'"))),
    }
}

// --- scheduler errors ----------------------------------------------------

/// The packet-validation reasons [`Packet::validate`] can emit. Snapshots
/// store the string; load maps it back to the `'static` original.
const PACKET_REASONS: [&str; 4] = [
    "zero length",
    "length exceeds MAX_PACKET_BYTES",
    "non-finite arrival time",
    "non-finite birth time",
];

pub(crate) fn save_error(e: &HpfqError) -> Value {
    let (tag, fields): (&str, Vec<Value>) = match e {
        HpfqError::InvalidShare(s) => ("invalid_share", vec![Value::F64(*s)]),
        HpfqError::ShareOverflow { node, sum } => (
            "share_overflow",
            vec![Value::U64(*node as u64), Value::F64(*sum)],
        ),
        HpfqError::UnknownNode(n) => ("unknown_node", vec![Value::U64(*n as u64)]),
        HpfqError::NotALeaf(n) => ("not_a_leaf", vec![Value::U64(*n as u64)]),
        HpfqError::NotInternal(n) => ("not_internal", vec![Value::U64(*n as u64)]),
        HpfqError::InvalidRate(r) => ("invalid_rate", vec![Value::F64(*r)]),
        HpfqError::InvalidPacket { id, flow, reason } => (
            "invalid_packet",
            vec![
                Value::U64(*id),
                Value::U64(u64::from(*flow)),
                Value::Str((*reason).to_string()),
            ],
        ),
        HpfqError::NodeDetached(n) => ("node_detached", vec![Value::U64(*n as u64)]),
        HpfqError::HasChildren(n) => ("has_children", vec![Value::U64(*n as u64)]),
    };
    let mut items = vec![Value::Str(tag.into())];
    items.extend(fields);
    Value::List(items)
}

pub(crate) fn load_error(v: &Value) -> Result<HpfqError, SnapError> {
    let (tag, rest) = tagged(v, "scheduler error")?;
    let one_usize = |rest: &[Value]| -> Result<usize, SnapError> {
        if rest.len() != 1 {
            return Err(refuse(format!(
                "error '{tag}' wants 1 field, got {}",
                rest.len()
            )));
        }
        rest[0].as_usize()
    };
    match tag.as_str() {
        "invalid_share" if rest.len() == 1 => Ok(HpfqError::InvalidShare(rest[0].as_f64()?)),
        "share_overflow" if rest.len() == 2 => Ok(HpfqError::ShareOverflow {
            node: rest[0].as_usize()?,
            sum: rest[1].as_f64()?,
        }),
        "unknown_node" => Ok(HpfqError::UnknownNode(one_usize(&rest)?)),
        "not_a_leaf" => Ok(HpfqError::NotALeaf(one_usize(&rest)?)),
        "not_internal" => Ok(HpfqError::NotInternal(one_usize(&rest)?)),
        "invalid_rate" if rest.len() == 1 => Ok(HpfqError::InvalidRate(rest[0].as_f64()?)),
        "invalid_packet" if rest.len() == 3 => {
            let reason_str = rest[2].as_str()?;
            let reason = PACKET_REASONS
                .iter()
                .find(|r| **r == reason_str)
                .copied()
                .ok_or_else(|| refuse(format!("unknown packet reason '{reason_str}'")))?;
            Ok(HpfqError::InvalidPacket {
                id: rest[0].as_u64()?,
                flow: rest[1].as_u32()?,
                reason,
            })
        }
        "node_detached" => Ok(HpfqError::NodeDetached(one_usize(&rest)?)),
        "has_children" => Ok(HpfqError::HasChildren(one_usize(&rest)?)),
        _ => Err(refuse(format!("unknown scheduler error '{tag}'"))),
    }
}

// --- commands ------------------------------------------------------------

fn save_command(cmd: &SimCommand) -> Result<Value, SnapError> {
    Ok(match cmd {
        SimCommand::SetLinkRate(bps) => {
            Value::List(vec![Value::Str("set_rate".into()), Value::F64(*bps)])
        }
        SimCommand::SetLinkRateOn { link, bps } => Value::List(vec![
            Value::Str("set_rate_on".into()),
            Value::U64(*link as u64),
            Value::F64(*bps),
        ]),
        SimCommand::AddFlow {
            parent,
            phi,
            flow,
            source,
            buffer_bytes,
            delivery_delay,
        } => Value::List(vec![
            Value::Str("add_flow".into()),
            Value::U64(parent.index() as u64),
            Value::F64(*phi),
            Value::U64(u64::from(*flow)),
            source.save_state()?,
            save_opt_u64(*buffer_bytes),
            Value::F64(*delivery_delay),
        ]),
        SimCommand::RemoveFlow(flow) => Value::List(vec![
            Value::Str("remove_flow".into()),
            Value::U64(u64::from(*flow)),
        ]),
    })
}

fn load_command(v: &Value) -> Result<SimCommand, SnapError> {
    let (tag, rest) = tagged(v, "command")?;
    match tag.as_str() {
        "set_rate" if rest.len() == 1 => Ok(SimCommand::SetLinkRate(rest[0].as_f64()?)),
        "set_rate_on" if rest.len() == 2 => Ok(SimCommand::SetLinkRateOn {
            link: rest[0].as_usize()?,
            bps: rest[1].as_f64()?,
        }),
        "add_flow" if rest.len() == 6 && is_delay(rest[5].as_f64()?) => Ok(SimCommand::AddFlow {
            parent: NodeId(rest[0].as_usize()?),
            phi: rest[1].as_f64()?,
            flow: rest[2].as_u32()?,
            source: load_source(&rest[3])?,
            buffer_bytes: load_opt_u64(&rest[4])?,
            delivery_delay: rest[5].as_f64()?,
        }),
        "remove_flow" if rest.len() == 1 => Ok(SimCommand::RemoveFlow(rest[0].as_u32()?)),
        _ => Err(refuse(format!("unknown command '{tag}'"))),
    }
}

// --- events --------------------------------------------------------------

pub(crate) fn save_event(ev: &NetEvent) -> Result<Value, SnapError> {
    Ok(match ev {
        NetEvent::Wake(i) => Value::List(vec![Value::Str("wake".into()), Value::U64(*i as u64)]),
        NetEvent::Arrive { src, hop, pkt } => Value::List(vec![
            Value::Str("arrive".into()),
            Value::U64(*src as u64),
            Value::U64(*hop as u64),
            pkt.save(),
        ]),
        NetEvent::Deliver(i, pkt) => Value::List(vec![
            Value::Str("deliver".into()),
            Value::U64(*i as u64),
            pkt.save(),
        ]),
        NetEvent::Command(cmd) => Value::List(vec![Value::Str("cmd".into()), save_command(cmd)?]),
        NetEvent::Detach { src, hop, reason } => Value::List(vec![
            Value::Str("detach".into()),
            Value::U64(*src as u64),
            Value::U64(*hop as u64),
            save_reason(reason),
        ]),
    })
}

pub(crate) fn load_event(v: &Value) -> Result<NetEvent, SnapError> {
    let (tag, rest) = tagged(v, "event")?;
    match tag.as_str() {
        "wake" if rest.len() == 1 => Ok(NetEvent::Wake(rest[0].as_usize()?)),
        "arrive" if rest.len() == 3 => Ok(NetEvent::Arrive {
            src: rest[0].as_usize()?,
            hop: rest[1].as_usize()?,
            pkt: Packet::load(&rest[2])?,
        }),
        "deliver" if rest.len() == 2 => Ok(NetEvent::Deliver(
            rest[0].as_usize()?,
            Packet::load(&rest[1])?,
        )),
        "cmd" if rest.len() == 1 => Ok(NetEvent::Command(load_command(&rest[0])?)),
        "detach" if rest.len() == 3 => Ok(NetEvent::Detach {
            src: rest[0].as_usize()?,
            hop: rest[1].as_usize()?,
            reason: load_reason(&rest[2])?,
        }),
        _ => Err(refuse(format!("unknown event '{tag}'"))),
    }
}

// --- source slots --------------------------------------------------------

fn load_slot(sv: &Value) -> Result<SourceSlot, SnapError> {
    Ok(SourceSlot {
        src: load_source(sv.get("src")?)?,
        route: load_route(sv.get("route")?)?,
        flow: sv.get("flow")?.as_u32()?,
        live: sv.get("live")?.as_bool()?,
        started: sv.get("started")?.as_bool()?,
        wants_delivery: sv.get("wants_delivery")?.as_bool()?,
        stats_slot: 0,
    })
}

/// Refuses a source index the snapshot's own table does not hold.
fn check_source(sources: &[SourceSlot], idx: usize, what: &str) -> Result<(), SnapError> {
    if idx < sources.len() {
        return Ok(());
    }
    Err(refuse(format!(
        "{what} names source {idx} but the snapshot has {}",
        sources.len()
    )))
}

/// Refuses a queued event the handlers could not run: a source or hop its
/// route table lacks, a time no run could have produced.
fn check_event(sources: &[SourceSlot], now: f64, t: f64, ev: &NetEvent) -> Result<(), SnapError> {
    if !(t.is_finite() && t >= now) {
        return Err(refuse(format!(
            "event time {t} is not a finite time at or after the clock {now}"
        )));
    }
    match ev {
        NetEvent::Wake(i) => {
            check_source(sources, *i, "wake event")?;
            if u32::try_from(*i).is_err() {
                return Err(refuse(format!("wake source {i} exceeds the timer payload")));
            }
        }
        NetEvent::Deliver(i, _) => check_source(sources, *i, "deliver event")?,
        NetEvent::Arrive { src, hop, .. } | NetEvent::Detach { src, hop, .. } => {
            check_source(sources, *src, "arrive/detach event")?;
            let hops = sources[*src].route.hops.len();
            if *hop >= hops {
                return Err(refuse(format!(
                    "event names hop {hop} of source {src}, whose route has {hops}"
                )));
            }
        }
        NetEvent::Command(_) => {}
    }
    Ok(())
}

/// One link's state from a snapshot, checked and waiting to be installed.
struct LinkState<'a, S: NodeScheduler> {
    server: HierarchyState<S>,
    obs: &'a Value,
    rate: f64,
    tx_start: f64,
    tx_done: Option<f64>,
    tx_remaining_bits: f64,
    tx_updated: f64,
    ledger: LinkLedger,
}

// --- the network ---------------------------------------------------------

impl<S: NodeScheduler, O: Observer> Network<S, O> {
    /// Captures the complete simulation state as a [`Value`] tree.
    ///
    /// Takes `&mut self` because enumerating the event queue drains and
    /// re-schedules it (the queue's contents are otherwise opaque); the
    /// re-insertion happens in drained order, so FIFO tie-breaking is
    /// preserved and the network's behaviour is unchanged — snapshotting
    /// is observationally a no-op.
    ///
    /// Errors if an installed source or fault injector does not support
    /// checkpointing.
    pub fn snapshot(&mut self) -> Result<Value, SnapError> {
        let now = self.engine.now();
        let links = self
            .links
            .iter()
            .map(|l| {
                Value::map(vec![
                    ("server", l.server.save_state()),
                    ("obs", l.server.observer().mark()),
                    ("rate", Value::F64(l.rate)),
                    ("tx_start", Value::F64(l.tx_start)),
                    ("tx_done", Value::opt(l.tx_done.map(Value::F64))),
                    ("tx_remaining_bits", Value::F64(l.tx_remaining_bits)),
                    ("tx_updated", Value::F64(l.tx_updated)),
                    ("ledger", save_ledger(&l.ledger)),
                ])
            })
            .collect();
        // Enumerate the queue: drain in firing order, serialize, put every
        // entry straight back (`queue_event`: a wake goes back as the timer it
        // was). All pending times are >= now, so the re-schedule neither
        // clamps nor reorders. Every drained event is
        // re-scheduled even when serialization fails partway — the error
        // must not eat the queue.
        let drained = self.engine.drain_ordered();
        let mut events = Vec::with_capacity(drained.len());
        let mut save_err = None;
        for (t, _, ev) in drained {
            if save_err.is_none() {
                match save_event(&ev) {
                    Ok(v) => events.push(Value::List(vec![Value::F64(t), v])),
                    Err(e) => save_err = Some(e),
                }
            }
            self.queue_event(t, ev);
        }
        if let Some(e) = save_err {
            return Err(e);
        }
        let sources = self
            .sources
            .iter()
            .map(|slot| {
                Ok(Value::map(vec![
                    ("src", slot.src.save_state()?),
                    ("route", save_route(&slot.route)),
                    ("flow", Value::U64(u64::from(slot.flow))),
                    ("live", Value::Bool(slot.live)),
                    ("started", Value::Bool(slot.started)),
                    ("wants_delivery", Value::Bool(slot.wants_delivery)),
                ]))
            })
            .collect::<Result<Vec<_>, SnapError>>()?;
        let cmd_errors = self
            .command_errors
            .iter()
            .map(|(t, e)| Value::List(vec![Value::F64(*t), save_error(e)]))
            .collect();
        let injector = match &self.injector {
            Some(inj) => inj.save_state()?,
            None => Value::Null,
        };
        Ok(Value::map(vec![
            ("v", Value::U64(SNAPSHOT_VERSION)),
            ("now", Value::F64(now)),
            ("links", Value::List(links)),
            ("events", Value::List(events)),
            ("sources", Value::List(sources)),
            ("stats", self.stats.save_state()),
            (
                "policy",
                Value::List(vec![
                    Value::U64(u64::from(self.policy.quarantine_after)),
                    Value::U64(u64::from(self.policy.halt_after)),
                ]),
            ),
            ("escalation", self.escalation.save_state()),
            ("halted", Value::Bool(self.halted)),
            ("inflight", Value::I64(self.inflight_bytes)),
            ("cmd_errors", Value::List(cmd_errors)),
            ("injector", injector),
        ]))
    }
}

impl<S: NodeScheduler + Clone, O: Observer> Network<S, O> {
    /// Restores state captured by [`Network::snapshot`].
    ///
    /// The target must have the same link topology (same `add_link`
    /// sequence with identically configured hierarchies). Source slots and
    /// hierarchy leaves may differ by *churn*: a rollback discards slots
    /// and leaves the live network gained after the checkpoint, a resume
    /// re-creates ones the snapshot gained after the target was built. An
    /// installed fault injector must match the snapshot (state is loaded
    /// into it; an injector cannot be conjured from a snapshot alone).
    ///
    /// The snapshot is untrusted input, and a refused one leaves the
    /// network as it was. Every piece — each link's hierarchy and
    /// transmission state, the sources and their routes, the queued
    /// events, statistics, the escalation ladder, command errors — is
    /// parsed and checked before anything is written; the fault injector
    /// loads last of all fallible steps; then everything is installed.
    pub fn restore(&mut self, snap: &Value) -> Result<(), SnapError> {
        let version = snap.get("v")?.as_u64()?;
        if version != SNAPSHOT_VERSION {
            return Err(refuse(format!(
                "snapshot version {version} unsupported (expected {SNAPSHOT_VERSION})"
            )));
        }
        let now = snap.get_finite("now")?;
        let links_v = snap.get("links")?.items()?;
        if links_v.len() != self.links.len() {
            return Err(refuse(format!(
                "snapshot has {} links but the network has {}",
                links_v.len(),
                self.links.len()
            )));
        }
        let mut links = Vec::with_capacity(links_v.len());
        for (i, (lv, l)) in links_v.iter().zip(&self.links).enumerate() {
            links.push(
                load_link(&l.server, lv, now)
                    .map_err(|e| refuse(format!("link {i}: {}", e.what)))?,
            );
        }
        let sources = snap
            .get("sources")?
            .items()?
            .iter()
            .map(load_slot)
            .collect::<Result<Vec<_>, _>>()?;
        for (idx, slot) in sources.iter().enumerate() {
            for hop in slot.route.hops.iter() {
                if !links
                    .get(hop.link)
                    .is_some_and(|l| l.server.is_leaf(hop.leaf))
                {
                    return Err(refuse(format!(
                        "source {idx} routes through leaf {} of link {}, which is no leaf there",
                        hop.leaf.index(),
                        hop.link
                    )));
                }
            }
        }
        let mut events = Vec::new();
        for entry in snap.get("events")?.items()? {
            let f = fixed_list(entry, 2, "event entry")?;
            let (t, ev) = (f[0].as_f64()?, load_event(&f[1])?);
            check_event(&sources, now, t, &ev)?;
            events.push((t, ev));
        }
        let mut stats = SimStats::new();
        stats.load_state(snap.get("stats")?)?;
        let policy = fixed_list(snap.get("policy")?, 2, "escalation policy")?;
        let policy = EscalationPolicy {
            quarantine_after: policy[0].as_u32()?,
            halt_after: policy[1].as_u32()?,
        };
        let mut escalation = EscalationState::new();
        escalation.load_state(snap.get("escalation")?)?;
        let halted = snap.get("halted")?.as_bool()?;
        let inflight_bytes = snap.get("inflight")?.as_i64()?;
        let mut command_errors = Vec::new();
        for pair in snap.get("cmd_errors")?.items()? {
            let f = fixed_list(pair, 2, "command-error entry")?;
            command_errors.push((f[0].as_f64()?, load_error(&f[1])?));
        }
        // Last of all fallible steps: a refusing injector is unchanged, and
        // nothing else has been written yet.
        match (&mut self.injector, snap.get("injector")?) {
            (None, inj) if inj.is_null() => {}
            (Some(inj), state) if !state.is_null() => inj.load_state(state)?,
            (None, _) => {
                return Err(refuse(
                    "snapshot carries fault-injector state but none is installed; \
                     install a matching injector before restoring",
                ));
            }
            (Some(_), _) => {
                return Err(refuse(
                    "a fault injector is installed but the snapshot has none",
                ));
            }
        }
        for (l, ls) in self.links.iter_mut().zip(links) {
            l.server.install_state(ls.server);
            l.server.observer_mut().rewind(ls.obs);
            (l.rate, l.tx_start, l.tx_done) = (ls.rate, ls.tx_start, ls.tx_done);
            (l.tx_remaining_bits, l.tx_updated) = (ls.tx_remaining_bits, ls.tx_updated);
            l.ledger = ls.ledger;
        }
        // Clock before queue: scheduling clamps against `now`, so the
        // clock must be rolled back before snapshot events are re-inserted.
        let _ = self.engine.drain_ordered();
        self.engine.reset_to(now);
        for (t, ev) in events {
            self.queue_event(t, ev);
        }
        // The owner index is a function of the source table: rebuilt the
        // way `push_source` builds it, slot by slot.
        self.flow_owner = FlowIndex::default();
        for (idx, slot) in sources.iter().enumerate() {
            self.flow_owner.insert(slot.flow, idx, |i| sources[i].flow);
        }
        (self.sources, self.started_below, self.stats) = (sources, 0, stats);
        (self.policy, self.escalation, self.halted) = (policy, escalation, halted);
        (self.inflight_bytes, self.command_errors) = (inflight_bytes, command_errors);
        Ok(())
    }
}

/// Parses snapshot link `lv` for the link `server` serves, at clock `now`:
/// the hierarchy, then a transmission state the engine can complete — a
/// pending completion exactly while a packet is in flight on a running
/// link, at a finite time no earlier than the clock.
fn load_link<'a, S: NodeScheduler + Clone, O: Observer>(
    server: &Hierarchy<S, O>,
    lv: &'a Value,
    now: f64,
) -> Result<LinkState<'a, S>, SnapError> {
    let server_v = lv.get("server")?;
    let done = lv.get("tx_done")?;
    let ls = LinkState {
        server: server.parse_state(server_v)?,
        obs: lv.get("obs")?,
        rate: lv.get("rate")?.as_f64()?,
        tx_start: lv.get_finite("tx_start")?,
        tx_done: if done.is_null() {
            None
        } else {
            Some(done.as_f64()?)
        },
        tx_remaining_bits: lv.get_finite("tx_remaining_bits")?,
        tx_updated: lv.get_finite("tx_updated")?,
        ledger: load_ledger(lv.get("ledger")?)?,
    };
    let in_flight = server_v.get("transmitting")?.as_bool()? && ls.rate > 0.0;
    let valid = is_link_rate(ls.rate)
        && ls.tx_remaining_bits >= 0.0
        && ls.tx_done.is_some() == in_flight
        && ls.tx_done.is_none_or(|t| t.is_finite() && t >= now);
    if !valid {
        return Err(refuse(format!(
            "rate {}, completion {:?}, {} bits to send",
            ls.rate, ls.tx_done, ls.tx_remaining_bits
        )));
    }
    Ok(ls)
}
