//! Typed scheduler events.
//!
//! Every decision the scheduling machinery takes is described by one of the
//! structs below. They use plain indices (`usize` node ids, `u32` flow ids)
//! rather than the core crate's newtypes so this crate sits *below*
//! `hpfq-core` in the dependency graph and the core types can stay where
//! they are.
//!
//! Events fall into two families:
//!
//! * **virtual-time events** emitted by the hierarchy itself —
//!   [`DispatchEvent`] (one per RESTART-NODE selection, carrying the winning
//!   session's `(S, F)` tags and the node's virtual time before and after),
//!   [`BacklogEvent`] (a node starts/stops offering a packet) and
//!   [`BusyResetEvent`] (a node scheduler's busy period ended and its
//!   virtual clock restarted);
//! * **real-time events** emitted by whoever drives the link —
//!   [`EnqueueEvent`], [`DropEvent`], and [`TxEvent`] for transmission
//!   start/completion.

/// Identity of a packet as carried inside events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketInfo {
    /// Packet id (globally unique within a run).
    pub id: u64,
    /// Flow the packet belongs to.
    pub flow: u32,
    /// Length on the wire in bytes.
    pub len_bytes: u32,
    /// Arrival time at the server, in seconds.
    pub arrival: f64,
}

/// A packet was appended to a leaf FIFO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnqueueEvent {
    /// Arrival time.
    pub time: f64,
    /// Output link (hierarchy) the event belongs to; 0 for
    /// single-link setups.
    pub link: usize,
    /// Leaf node index.
    pub leaf: usize,
    /// The packet.
    pub pkt: PacketInfo,
    /// Queue depth (packets) after the enqueue, including one in flight.
    pub queue_depth: usize,
    /// Queue depth (bytes) after the enqueue.
    pub queue_bytes: u64,
}

/// A packet was dropped at a leaf's drop-tail buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropEvent {
    /// Drop time (the packet's would-be arrival).
    pub time: f64,
    /// Output link (hierarchy) the event belongs to; 0 for
    /// single-link setups.
    pub link: usize,
    /// Leaf node index.
    pub leaf: usize,
    /// The packet.
    pub pkt: PacketInfo,
    /// Queue depth in bytes at the moment of the drop.
    pub queue_bytes: u64,
}

/// One RESTART-NODE selection: node `node` dispatched the head of session
/// slot `session` (child node `child`), advancing its virtual time from
/// `v_before` to `v_after` (pseudocode lines 12–13).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchEvent {
    /// Best-known real time of the selection (exact when driven by the
    /// simulator, last-arrival time for standalone hierarchies).
    pub time: f64,
    /// Output link (hierarchy) the event belongs to; 0 for
    /// single-link setups.
    pub link: usize,
    /// Index of the dispatching (internal) node.
    pub node: usize,
    /// Session slot within the node's scheduler.
    pub session: usize,
    /// Child node index the slot corresponds to.
    pub child: usize,
    /// Virtual start tag `S` of the dispatched head (eq. 28).
    pub start_tag: f64,
    /// Virtual finish tag `F` of the dispatched head (eq. 29).
    pub finish_tag: f64,
    /// Guaranteed share of the winning session.
    pub phi: f64,
    /// Node virtual time immediately before the selection.
    pub v_before: f64,
    /// Node virtual time immediately after (for WF²Q+,
    /// `max(V, Smin) + L/r`).
    pub v_after: f64,
    /// Length of the dispatched head in bits.
    pub head_bits: f64,
    /// Configured rate of the dispatching node in bits/s.
    pub node_rate: f64,
    /// Policy name of the node's scheduler ("wf2q+", "wfq", …).
    pub policy: &'static str,
}

/// The link started or finished transmitting a packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxEvent {
    /// Real time of the edge.
    pub time: f64,
    /// Output link (hierarchy) the event belongs to; 0 for
    /// single-link setups.
    pub link: usize,
    /// Leaf the packet is queued at.
    pub leaf: usize,
    /// The packet.
    pub pkt: PacketInfo,
}

/// A node transitioned between idle and backlogged (offering a packet).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BacklogEvent {
    /// Best-known real time of the transition.
    pub time: f64,
    /// Output link (hierarchy) the event belongs to; 0 for
    /// single-link setups.
    pub link: usize,
    /// Node index.
    pub node: usize,
    /// `true` when the node starts offering a packet, `false` when it
    /// goes idle.
    pub active: bool,
}

/// A node scheduler's busy period ended: its virtual clock and all session
/// tags were reset to zero (paper eq. 4 defines `V` per busy period).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusyResetEvent {
    /// Best-known real time of the reset.
    pub time: f64,
    /// Output link (hierarchy) the event belongs to; 0 for
    /// single-link setups.
    pub link: usize,
    /// Node index.
    pub node: usize,
}

/// The family of an injected or detected fault (see [`FaultEvent`]).
///
/// The three link faults are scheduled (by a chaos harness, say),
/// [`FaultKind::FlowAdd`] and [`FaultKind::FlowRemove`] record churn, and
/// [`FaultKind::PacketDrop`] and [`FaultKind::InvalidPacket`] are
/// *detected* at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The link rate changed (value = new rate in bits/s).
    LinkRate,
    /// The link went down (outage start; value = 0).
    LinkDown,
    /// The link came back up (outage end; value = restored rate).
    LinkUp,
    /// A packet found its leaf gone at admission (value = length in bytes).
    PacketDrop,
    /// A flow/leaf was added mid-run (churn; value = its share).
    FlowAdd,
    /// A flow/leaf was removed mid-run (churn; value = its share).
    FlowRemove,
    /// A packet failed admission validation (value = claimed length).
    InvalidPacket,
}

impl FaultKind {
    /// Stable wire name for traces.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::LinkRate => "link_rate",
            FaultKind::LinkDown => "link_down",
            FaultKind::LinkUp => "link_up",
            FaultKind::PacketDrop => "pkt_drop",
            FaultKind::FlowAdd => "flow_add",
            FaultKind::FlowRemove => "flow_remove",
            FaultKind::InvalidPacket => "invalid_pkt",
        }
    }

    /// Inverse of [`FaultKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "link_rate" => FaultKind::LinkRate,
            "link_down" => FaultKind::LinkDown,
            "link_up" => FaultKind::LinkUp,
            "pkt_drop" => FaultKind::PacketDrop,
            "flow_add" => FaultKind::FlowAdd,
            "flow_remove" => FaultKind::FlowRemove,
            "invalid_pkt" => FaultKind::InvalidPacket,
            _ => return None,
        })
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A fault was injected into, or detected by, the system under test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Time of the fault.
    pub time: f64,
    /// Output link (hierarchy) the event belongs to; 0 for
    /// single-link setups.
    pub link: usize,
    /// Fault family.
    pub kind: FaultKind,
    /// Node the fault applies to (0 = the link/root when not node-local).
    pub node: usize,
    /// Flow the fault applies to (0 when not flow-local).
    pub flow: u32,
    /// Kind-specific magnitude (see [`FaultKind`] variant docs).
    pub value: f64,
}

/// A union of every event — the form traces are parsed back into (see
/// [`crate::jsonl`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// See [`EnqueueEvent`].
    Enqueue(EnqueueEvent),
    /// See [`DropEvent`].
    Drop(DropEvent),
    /// See [`DispatchEvent`]; the policy is re-interned via
    /// [`intern_policy`] when parsed from a file.
    Dispatch(DispatchEvent),
    /// Transmission start; see [`TxEvent`].
    TxStart(TxEvent),
    /// Transmission completion; see [`TxEvent`].
    TxComplete(TxEvent),
    /// See [`BacklogEvent`].
    Backlog(BacklogEvent),
    /// See [`BusyResetEvent`].
    BusyReset(BusyResetEvent),
    /// See [`FaultEvent`].
    Fault(FaultEvent),
}

/// Maps a policy name read from a trace back to a `'static` string so a
/// parsed [`DispatchEvent`] compares equal to the emitted one. Unknown
/// names map to `"?"` — the invariant checks that are policy-conditional
/// simply skip them.
pub fn intern_policy(name: &str) -> &'static str {
    const KNOWN: [&str; 7] = ["wf2q+", "wfq", "wf2q", "scfq", "sfq", "drr", "fifo"];
    KNOWN.iter().find(|&&k| k == name).copied().unwrap_or("?")
}
