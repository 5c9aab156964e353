//! The H-PFQ hierarchy of paper §4: a tree of one-level [`NodeScheduler`]s
//! approximating H-GPS.
//!
//! ## Structure
//!
//! The root node represents the physical link; each leaf holds a real FIFO
//! packet queue; every internal node runs a one-level scheduler over its
//! children's *logical queues*. A logical queue exposes only its head
//! packet; the packet itself stays in the leaf FIFO until the link finishes
//! transmitting it (paper §4.2). At any moment when the server is busy
//! there is a path from the root to a leaf whose logical heads all refer to
//! the packet in flight.
//!
//! ## Layout
//!
//! The two kinds of node are stored apart, because they share almost
//! nothing. A leaf is one 40-byte record — the head, tail and length of its
//! FIFO, the queued byte count, the length of the head it offers, its
//! parent and session slot, three flags — so the per-packet work at a leaf
//! stays inside one cache line. The packets themselves, every leaf's, are
//! nodes of one slab owned by the hierarchy, each linked to the packet
//! queued behind it (`slab.rs`): a leaf owns no allocation. An
//! internal node holds its scheduler by value, its children, and a
//! *reference* to the head it offers (the leaf that owns the packet, and
//! the packet's length). Children, heads and parents are `u32` indices into
//! the two arrays; a child reference carries one tag bit saying which.
//!
//! [`NodeId`]s stay what callers have always seen: dense, in creation
//! order, leaves and internal nodes interleaved as they were added. A table
//! maps each id to its record, two more map records back to ids for the
//! [`Observer`] events, and the shares (`rate`, `phi`, the
//! allocated sum), which no per-packet path reads, sit in a side table
//! indexed by id. Ids are translated once where a call enters; everything
//! inside works on indices.
//!
//! ## Driving protocol (what the paper's pseudocode becomes)
//!
//! * [`Hierarchy::enqueue`] — ARRIVE: append to the leaf FIFO; if the leaf
//!   was idle, offer the packet to the parent ([`NodeScheduler::backlog`],
//!   stamping `S = max(F, V_parent)`) and *bubble up*: every ancestor that
//!   was not offering a packet runs RESTART-NODE (selects a head, advancing
//!   its own `V`/`T` per lines 12–13) and offers it upward in turn.
//! * [`Hierarchy::start_transmission`] — the link takes the root's offered
//!   packet (pseudocode line 20).
//! * [`Hierarchy::complete_transmission`] — RESET-PATH: clear the logical
//!   heads along the in-flight path, pop the packet from its leaf FIFO,
//!   re-offer the leaf's next packet (`S = F`, eq. 28 first case), and
//!   re-run RESTART-NODE bottom-up along the path so every node on it
//!   selects its next head. On return, if the root offers a packet the link
//!   starts it immediately (work conservation).
//!
//! Arrivals during a transmission bubble up until they meet a node already
//! offering a packet — in particular they never disturb the in-flight path,
//! exactly as in the paper. Ancestors beyond that point still learn of the
//! arrival through [`NodeScheduler::arrival_hint`], which the GPS-emulating
//! policies (WFQ, WF²Q) use to keep their per-session fluid backlogs — and
//! hence their virtual-time slopes — exact rather than head-limited. A tree
//! in which no scheduler [wants](NodeScheduler::wants_arrival_hints) them
//! (H-WF²Q+, say) skips that walk: its ARRIVE stops at the first node
//! already offering a head, as the paper's does.
//!
//! ## Reference time
//!
//! Nodes are clocked purely by their own dispatches (reference time §4.1):
//! real time never enters the tree. For the root, reference time coincides
//! with real time during busy periods (eq. 32), so a depth-1 hierarchy is a
//! standalone packet server.

use hpfq_obs::{
    BacklogEvent, BusyResetEvent, DispatchEvent, EnqueueEvent, NoopObserver, Observer, PacketInfo,
    TxEvent,
};

use crate::error::HpfqError;
use crate::packet::Packet;
use crate::scheduler::{NodeScheduler, SessionId};
use crate::slab::{Chain, PacketSlab};
use crate::vtime;

fn pkt_info(p: &Packet) -> PacketInfo {
    PacketInfo {
        id: p.id,
        flow: p.flow,
        len_bytes: p.len_bytes,
        arrival: p.arrival,
    }
}

/// Identifies a node in a [`Hierarchy`]. The root is
/// [`Hierarchy::root`]; ids are dense indices assigned in creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// "No node" in a `u32` index field: the root's parent, the head of a node
/// that offers nothing.
const NIL: u32 = u32::MAX;

/// Where a node's record lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// Index into `Hierarchy::leaves`.
    Leaf(usize),
    /// Index into `Hierarchy::inners`.
    Inner(usize),
}

/// A [`Place`] in four bytes: the top bit says leaf, the rest is the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ref(u32);

impl Ref {
    const LEAF_BIT: u32 = 1 << 31;
    /// No child (an internal node that adopted no head). Never resolved.
    const NONE: Ref = Ref(NIL);

    #[inline]
    fn leaf(index: usize) -> Ref {
        Ref(index as u32 | Ref::LEAF_BIT)
    }

    #[inline]
    fn inner(index: usize) -> Ref {
        Ref(index as u32)
    }

    #[inline]
    fn is_leaf(self) -> bool {
        self.0 & Ref::LEAF_BIT != 0
    }

    #[inline]
    fn place(self) -> Place {
        debug_assert!(self != Ref::NONE, "resolving the null reference");
        if self.is_leaf() {
            Place::Leaf((self.0 & !Ref::LEAF_BIT) as usize)
        } else {
            Place::Inner(self.0 as usize)
        }
    }
}

/// A leaf: the real packet queue of one session. Forty bytes.
#[derive(Debug)]
struct Leaf {
    /// The queued packets, as a chain through `Hierarchy::slab`; the front
    /// one is in flight while the link transmits it.
    fifo: Chain,
    /// Queued bytes in `fifo`, for buffer management by the caller.
    fifo_bytes: u64,
    /// Length in bits of the front packet, valid while `offering`: what
    /// the parent reads when it adopts this leaf's head, without touching
    /// the slab.
    head_bits: f64,
    /// Parent, as an index into `Hierarchy::inners`.
    parent: u32,
    /// Session slot within the parent's scheduler.
    slot: u32,
    /// The leaf currently offers its front packet to the parent.
    offering: bool,
    /// The leaf has been removed from the tree: its share is returned to
    /// the parent's pool and it accepts no further traffic. The record
    /// stays allocated (node ids are dense and stable).
    detached: bool,
    /// Removal was requested while the leaf still offered a head packet:
    /// the head finishes service normally, then the detach completes.
    draining: bool,
}

impl Leaf {
    /// An empty, attached leaf in session `slot` of internal node `parent`.
    fn new(parent: u32, slot: u32) -> Leaf {
        Leaf {
            fifo: Chain::EMPTY,
            fifo_bytes: 0,
            head_bits: 0.0,
            parent,
            slot,
            offering: false,
            detached: false,
            draining: false,
        }
    }
}

/// An internal node: a one-level scheduler over its children's logical
/// queues, and a reference to the one head packet it offers upward.
#[derive(Debug)]
struct Inner<S> {
    sched: S,
    /// Child per session slot.
    children: Vec<Ref>,
    /// Length in bits of the offered head (valid while `head_leaf` is set).
    head_bits: f64,
    /// The leaf (index into `Hierarchy::leaves`) whose front packet this
    /// node offers to its parent; [`NIL`] while it offers none.
    head_leaf: u32,
    /// The child whose head this node adopted; [`Ref::NONE`] with no head.
    active_child: Ref,
    /// Parent, as an index into `Hierarchy::inners`; [`NIL`] for the root.
    parent: u32,
    /// Session slot within the parent's scheduler.
    slot: u32,
    /// The class has been removed (see [`Hierarchy::remove_internal`]).
    detached: bool,
}

impl<S> Inner<S> {
    /// A childless node offering no head, in session `slot` of internal
    /// node `parent` ([`NIL`] for the root).
    fn new(sched: S, parent: u32, slot: u32) -> Inner<S> {
        Inner {
            sched,
            children: Vec::new(),
            head_bits: 0.0,
            head_leaf: NIL,
            active_child: Ref::NONE,
            parent,
            slot,
            detached: false,
        }
    }
}

/// A node's share bookkeeping, read at construction, churn and reporting
/// time only — never per packet.
#[derive(Debug, Clone, Copy)]
struct Share {
    /// Guaranteed rate `r_n = φ_n · r_parent` in bits/s.
    rate: f64,
    /// Share of the parent's rate (1.0 for the root).
    phi: f64,
    /// Running sum of attached children's shares, for validation.
    child_phi_sum: f64,
}

/// An H-PFQ server: a tree of one-level schedulers. See the
/// [module documentation](self) for the driving protocol.
///
/// The second type parameter is an [`Observer`] receiving every scheduling
/// event; it defaults to [`NoopObserver`], under which all instrumentation
/// compiles away.
pub struct Hierarchy<S: NodeScheduler, O: Observer = NoopObserver> {
    leaves: Vec<Leaf>,
    /// Every leaf's queued packets.
    slab: PacketSlab,
    /// Internal nodes; index 0 is the root.
    inners: Vec<Inner<S>>,
    /// [`NodeId`] → record.
    refs: Vec<Ref>,
    /// [`NodeId`] → shares.
    shares: Vec<Share>,
    /// Leaf index → [`NodeId`], ascending (leaves are created in id order).
    leaf_ids: Vec<u32>,
    /// Internal-node index → [`NodeId`], ascending.
    inner_ids: Vec<u32>,
    /// Some scheduler in the tree [wants arrival
    /// hints](NodeScheduler::wants_arrival_hints). Clear, ARRIVE never
    /// walks past the first node already offering a head.
    wants_hints: bool,
    transmitting: bool,
    /// Warped time at which the current busy period began (eq. 32: the
    /// root's reference time is elapsed busy time *on the warped clock* —
    /// see `warp_base`).
    busy_start: f64,
    /// The root's reference clock assumes the busy link serves at its
    /// nominal rate, so when the physical link degrades (an outage, a
    /// rate fluctuation) real time outruns the tag arithmetic and the
    /// GPS-exact policies' `V` desynchronizes. The warped clock fixes the
    /// unit: it advances at `warp_factor` (= actual/nominal rate) per real
    /// second, so one warped second is always one nominal-rate-second of
    /// link work. `warp_base`/`warp_time` anchor the current segment.
    warp_base: f64,
    warp_time: f64,
    warp_factor: f64,
    /// Event sink.
    obs: O,
    /// Best-known real time, advanced by arrivals and the `*_at` driving
    /// calls; stamps events from code paths that have no exact clock.
    last_time: f64,
    /// Output link id stamped on every emitted event (0 for single-link
    /// setups); lets one observer ride a merged multi-link trace.
    link: usize,
    /// Reused in [`Hierarchy::complete_transmission_at`] for the internal
    /// nodes of the in-flight path, root first, so RESET-PATH allocates
    /// nothing in steady state.
    path_scratch: Vec<u32>,
}

impl<S: NodeScheduler, O: Observer> std::fmt::Debug for Hierarchy<S, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hierarchy")
            .field("nodes", &self.refs.len())
            .field("transmitting", &self.transmitting)
            .finish()
    }
}

/// Builds a [`Hierarchy`]: the scheduler factory lives here, during
/// construction only, so the finished hierarchy is plain data — no boxed
/// closure rides along on the hot path.
///
/// ```ignore
/// let mut b = HierarchyBuilder::new(1e9, |r| SchedulerKind::Wf2qPlus.build(r));
/// let cls = b.add_internal(b.root(), 0.8)?;
/// let leaf = b.add_leaf(cls, 0.5)?;
/// let mut h = b.build();
/// ```
///
/// Mid-run churn does not need the factory: leaves attach via
/// [`Hierarchy::add_leaf`], and heterogeneous internal nodes via
/// [`Hierarchy::add_internal_with`] with an explicit scheduler.
pub struct HierarchyBuilder<S: NodeScheduler, O: Observer = NoopObserver> {
    h: Hierarchy<S, O>,
    factory: Box<dyn Fn(f64) -> S>,
}

impl<S: NodeScheduler> HierarchyBuilder<S> {
    /// Starts a hierarchy whose root (the physical link) runs at
    /// `rate_bps`, building node schedulers with `factory`.
    pub fn new(rate_bps: f64, factory: impl Fn(f64) -> S + 'static) -> Self {
        HierarchyBuilder::with_observer(rate_bps, factory, NoopObserver)
    }
}

impl<S: NodeScheduler, O: Observer> HierarchyBuilder<S, O> {
    /// Like [`HierarchyBuilder::new`], with an explicit event sink attached.
    pub fn with_observer(rate_bps: f64, factory: impl Fn(f64) -> S + 'static, obs: O) -> Self {
        assert!(
            rate_bps.is_finite() && rate_bps > 0.0,
            "invalid link rate {rate_bps}"
        );
        let factory: Box<dyn Fn(f64) -> S> = Box::new(factory);
        let sched = factory(rate_bps);
        let h = Hierarchy {
            leaves: Vec::new(),
            slab: PacketSlab::new(),
            wants_hints: sched.wants_arrival_hints(),
            inners: vec![Inner::new(sched, NIL, 0)],
            refs: vec![Ref::inner(0)],
            shares: vec![Share {
                rate: rate_bps,
                phi: 1.0,
                child_phi_sum: 0.0,
            }],
            leaf_ids: Vec::new(),
            inner_ids: vec![0],
            transmitting: false,
            busy_start: 0.0,
            warp_base: 0.0,
            warp_time: 0.0,
            warp_factor: 1.0,
            obs,
            last_time: 0.0,
            link: 0,
            path_scratch: Vec::new(),
        };
        HierarchyBuilder { h, factory }
    }

    /// The root node (the physical link).
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Stamps every event the finished hierarchy emits with `link` (for
    /// multi-link simulations sharing one trace; defaults to 0).
    pub fn link_id(mut self, link: usize) -> Self {
        self.h.link = link;
        self
    }

    /// Adds an internal node (a link-sharing class) with share `phi` of its
    /// parent, running a scheduler built by the factory.
    pub fn add_internal(&mut self, parent: NodeId, phi: f64) -> Result<NodeId, HpfqError> {
        let p = self.h.validate_new_child(parent, phi)?;
        let sched = (self.factory)(phi * self.h.shares[parent.0].rate);
        Ok(self.h.push_node(p, phi, Some(sched)))
    }

    /// Adds an internal node running a caller-supplied scheduler (for
    /// heterogeneous trees via [`crate::MixedScheduler`]).
    pub fn add_internal_with(
        &mut self,
        parent: NodeId,
        phi: f64,
        sched: S,
    ) -> Result<NodeId, HpfqError> {
        self.h.add_internal_with(parent, phi, sched)
    }

    /// Adds a leaf (a session with a real FIFO queue) with share `phi` of
    /// its parent.
    pub fn add_leaf(&mut self, parent: NodeId, phi: f64) -> Result<NodeId, HpfqError> {
        self.h.add_leaf(parent, phi)
    }

    /// The guaranteed rate of a node added so far (bits/s), for topology
    /// code that derives shares from already-placed nodes.
    pub fn rate(&self, node: NodeId) -> f64 {
        self.h.rate(node)
    }

    /// Finishes construction, dropping the factory. The returned hierarchy
    /// is ready to serve traffic (and can still grow leaves and
    /// caller-supplied internal nodes mid-run).
    pub fn build(self) -> Hierarchy<S, O> {
        self.h
    }
}

impl<S: NodeScheduler> Hierarchy<S> {
    /// Shorthand for [`HierarchyBuilder::new`].
    pub fn builder(rate_bps: f64, factory: impl Fn(f64) -> S + 'static) -> HierarchyBuilder<S> {
        HierarchyBuilder::new(rate_bps, factory)
    }
}

impl<S: NodeScheduler, O: Observer> Hierarchy<S, O> {
    /// Shorthand for [`HierarchyBuilder::with_observer`].
    pub fn builder_with_observer(
        rate_bps: f64,
        factory: impl Fn(f64) -> S + 'static,
        obs: O,
    ) -> HierarchyBuilder<S, O> {
        HierarchyBuilder::with_observer(rate_bps, factory, obs)
    }

    /// Maps real time onto the warped reference clock (nominal-rate link
    /// seconds). Identity while the link runs at its nominal rate.
    fn warped(&self, t: f64) -> f64 {
        self.warp_base + (t - self.warp_time).max(0.0) * self.warp_factor
    }

    /// Resynchronizes the root's reference clock to a changed physical
    /// link speed: from `now` on, the link delivers `factor` × its nominal
    /// rate (`0.0` = a full outage, during which the reference clock — and
    /// with it the GPS-exact policies' virtual time — freezes).
    ///
    /// Drivers that vary the service rate (fault injection, shaped links)
    /// must call this at every change; otherwise the GPS emulation of
    /// WFQ/WF²Q measures elapsed *real* time against work-based tags and its
    /// virtual time loses monotonicity.
    pub fn set_link_rate_factor(&mut self, now: f64, factor: f64) -> Result<(), HpfqError> {
        if !is_rate_factor(factor) {
            return Err(HpfqError::InvalidRate(factor * self.link_rate()));
        }
        self.warp_base = self.warped(now);
        self.warp_time = now;
        self.warp_factor = factor;
        Ok(())
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// The attached observer, mutably (e.g. to flush or read counters).
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.obs
    }

    /// Consumes the hierarchy and returns the observer (e.g. to recover a
    /// trace writer's buffer).
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// The root node (the physical link).
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Link rate in bits/s.
    pub fn link_rate(&self) -> f64 {
        self.shares[0].rate
    }

    /// The link id stamped on every emitted event (see
    /// [`HierarchyBuilder::link_id`]).
    pub fn link_id(&self) -> usize {
        self.link
    }

    /// Re-stamps future events with `link` — for drivers that assign link
    /// ids after construction (e.g. a network wiring hierarchies to ports).
    pub fn set_link_id(&mut self, link: usize) {
        self.link = link;
    }

    /// The [`NodeId`] index of the node stored at `r`.
    fn id_of(&self, r: Ref) -> usize {
        match r.place() {
            Place::Leaf(l) => self.leaf_ids[l] as usize,
            Place::Inner(n) => self.inner_ids[n] as usize,
        }
    }

    /// Where `node` is stored; `None` for an id this hierarchy never issued.
    fn place(&self, node: NodeId) -> Option<Place> {
        self.refs.get(node.0).map(|r| r.place())
    }

    /// Checks that `parent` can take a child of share `phi`; returns the
    /// parent's index among the internal nodes.
    fn validate_new_child(&self, parent: NodeId, phi: f64) -> Result<usize, HpfqError> {
        if !(phi.is_finite() && phi > 0.0 && phi <= 1.0) {
            return Err(HpfqError::InvalidShare(phi));
        }
        let p = match self.place(parent) {
            None => return Err(HpfqError::UnknownNode(parent.0)),
            Some(Place::Leaf(_)) => return Err(HpfqError::NotInternal(parent.0)),
            Some(Place::Inner(p)) => p,
        };
        if self.inners[p].detached {
            return Err(HpfqError::NodeDetached(parent.0));
        }
        if phi < self.inners[p].sched.min_share() {
            return Err(HpfqError::InvalidShare(phi));
        }
        let sum = self.shares[parent.0].child_phi_sum + phi;
        if vtime::strictly_after(sum, 1.0) {
            return Err(HpfqError::ShareOverflow {
                node: parent.0,
                sum,
            });
        }
        Ok(p)
    }

    /// Appends a child of internal node `p` (an index into `inners`): an
    /// internal node when it comes with a scheduler, a leaf otherwise.
    fn push_node(&mut self, p: usize, phi: f64, sched: Option<S>) -> NodeId {
        let id = self.refs.len();
        assert!(
            id < Ref::LEAF_BIT as usize,
            "hierarchy is full (2^31 nodes)"
        );
        let parent_id = self.inner_ids[p] as usize;
        let rate = phi * self.shares[parent_id].rate;
        let slot = self.inners[p].sched.add_session(phi);
        debug_assert_eq!(slot.0, self.inners[p].children.len());
        let (parent, slot) = (p as u32, slot.0 as u32);
        let r = match sched {
            Some(mut sched) => {
                // Every node below the root sees reference time only
                // through its own served work: the dispatch loop passes
                // `ref_now = None` to internal nodes, and root-aware
                // schedulers (PIFO-backed) assert that convention in debug
                // builds.
                sched.set_is_root(false);
                self.wants_hints |= sched.wants_arrival_hints();
                self.inner_ids.push(id as u32);
                self.inners.push(Inner::new(sched, parent, slot));
                Ref::inner(self.inners.len() - 1)
            }
            None => {
                self.leaf_ids.push(id as u32);
                self.leaves.push(Leaf::new(parent, slot));
                Ref::leaf(self.leaves.len() - 1)
            }
        };
        self.inners[p].children.push(r);
        self.shares[parent_id].child_phi_sum += phi;
        self.refs.push(r);
        self.shares.push(Share {
            rate,
            phi,
            child_phi_sum: 0.0,
        });
        NodeId(id)
    }

    /// Adds an internal node running a caller-supplied scheduler (for
    /// heterogeneous trees via [`crate::MixedScheduler`]). The scheduler's
    /// configured rate should equal `phi` times the parent's rate.
    pub fn add_internal_with(
        &mut self,
        parent: NodeId,
        phi: f64,
        sched: S,
    ) -> Result<NodeId, HpfqError> {
        let p = self.validate_new_child(parent, phi)?;
        Ok(self.push_node(p, phi, Some(sched)))
    }

    /// Adds a leaf (a session with a real FIFO queue) with share `phi` of
    /// its parent.
    pub fn add_leaf(&mut self, parent: NodeId, phi: f64) -> Result<NodeId, HpfqError> {
        let p = self.validate_new_child(parent, phi)?;
        Ok(self.push_node(p, phi, None))
    }

    /// Removes a leaf mid-run (flow churn / quarantine), returning the
    /// packets purged from its queue.
    ///
    /// This is exactly the dynamic-session scenario WF²Q+'s virtual-time
    /// function was designed for (eqs. 27–29): an idle session exerts no
    /// pull on `V`, so once the leaf stops offering packets its share is
    /// redistributed among the remaining backlogged siblings by work
    /// conservation, with no clock surgery.
    ///
    /// Semantics: every packet *behind* the leaf's currently offered head
    /// is purged immediately and returned for accounting. If the leaf is
    /// offering a head (possibly in flight on the link), that one packet
    /// finishes service normally — retracting a stamped head from ancestor
    /// schedulers mid-selection would corrupt their GPS bookkeeping — and
    /// the detach completes at its RESET-PATH. An idle leaf detaches
    /// immediately. Either way the leaf rejects new traffic from this call
    /// onward, and its `phi` returns to the parent's allocatable pool at
    /// finalization.
    pub fn remove_leaf(&mut self, leaf: NodeId) -> Result<Vec<Packet>, HpfqError> {
        let l = match self.place(leaf) {
            None => return Err(HpfqError::UnknownNode(leaf.0)),
            Some(Place::Inner(_)) => return Err(HpfqError::NotALeaf(leaf.0)),
            Some(Place::Leaf(l)) => l,
        };
        let lf = &mut self.leaves[l];
        if lf.detached || lf.draining {
            return Err(HpfqError::NodeDetached(leaf.0));
        }
        let purged = self.slab.truncate(&mut lf.fifo, usize::from(lf.offering));
        for p in &purged {
            lf.fifo_bytes -= u64::from(p.len_bytes);
        }
        if lf.offering {
            lf.draining = true;
        } else {
            debug_assert_eq!(lf.fifo.len(), 0);
            self.detach_finalize(Ref::leaf(l));
        }
        Ok(purged)
    }

    /// Removes an interior class whose children have all been removed. The
    /// class's share returns to its parent's allocatable pool.
    pub fn remove_internal(&mut self, node: NodeId) -> Result<(), HpfqError> {
        let n = match self.place(node) {
            None => return Err(HpfqError::UnknownNode(node.0)),
            Some(Place::Leaf(_)) => return Err(HpfqError::NotInternal(node.0)),
            Some(Place::Inner(n)) => n,
        };
        let nd = &self.inners[n];
        if nd.parent == NIL {
            // The root is the physical link; it cannot be removed.
            return Err(HpfqError::UnknownNode(node.0));
        }
        if nd.detached {
            return Err(HpfqError::NodeDetached(node.0));
        }
        let live_child = nd.children.iter().any(|c| match c.place() {
            Place::Leaf(l) => !self.leaves[l].detached,
            Place::Inner(i) => !self.inners[i].detached,
        });
        if live_child || nd.head_leaf != NIL {
            return Err(HpfqError::HasChildren(node.0));
        }
        self.detach_finalize(Ref::inner(n));
        Ok(())
    }

    /// Completes a detach: returns the node's share to the parent pool and
    /// marks the record removed. The underlying scheduler session simply
    /// stays idle forever — an idle session is invisible to every policy's
    /// selection and virtual clock.
    fn detach_finalize(&mut self, r: Ref) {
        let parent = match r.place() {
            Place::Leaf(l) => {
                let lf = &mut self.leaves[l];
                lf.draining = false;
                lf.detached = true;
                lf.parent
            }
            Place::Inner(n) => {
                self.inners[n].detached = true;
                self.inners[n].parent
            }
        };
        if parent != NIL {
            let phi = self.shares[self.id_of(r)].phi;
            let pool = &mut self.shares[self.inner_ids[parent as usize] as usize].child_phi_sum;
            // Clamp: repeated add/remove cycles must never drive the pool
            // accounting negative through f64 rounding.
            *pool = (*pool - phi).max(0.0);
        }
    }

    /// Whether `node` has been removed (or is draining toward removal).
    pub fn is_detached(&self, node: NodeId) -> bool {
        match self.refs[node.0].place() {
            Place::Leaf(l) => self.leaves[l].detached || self.leaves[l].draining,
            Place::Inner(n) => self.inners[n].detached,
        }
    }

    /// ARRIVE: appends `pkt` to leaf `leaf`'s queue and propagates logical
    /// heads up the tree.
    ///
    /// `pkt.arrival` is taken as the (real) arrival time: arrivals within
    /// one run must carry non-decreasing arrival stamps (the simulator
    /// guarantees this). The root server's reference time at the arrival —
    /// real time elapsed in the current busy period, eq. 32 — is derived
    /// from it, so arrivals between dispatches are stamped with the exact
    /// root virtual time instead of the dispatch-quantized one. Internal
    /// nodes remain clocked purely by their own dispatches, as in the
    /// paper's pseudocode.
    ///
    /// # Panics
    /// If `leaf` is not a valid, attached leaf node or `pkt` is malformed.
    /// Fallible callers (anything fed by untrusted sources) should use
    /// [`Hierarchy::try_enqueue`] instead.
    #[expect(
        clippy::panic,
        reason = "documented contract of the infallible convenience API; the simulator and \
                  every untrusted source use try_enqueue"
    )]
    pub fn enqueue(&mut self, leaf: NodeId, pkt: Packet) {
        if let Err(e) = self.try_enqueue(leaf, pkt) {
            panic!("enqueue: {e}");
        }
    }

    /// Fallible ARRIVE: validates the packet and the target leaf, then
    /// enqueues. On `Err` the hierarchy is unchanged — this is the
    /// graceful-degradation entry point for untrusted traffic.
    pub fn try_enqueue(&mut self, leaf: NodeId, pkt: Packet) -> Result<(), HpfqError> {
        let l = match self.place(leaf) {
            None => return Err(HpfqError::UnknownNode(leaf.0)),
            Some(Place::Inner(_)) => return Err(HpfqError::NotALeaf(leaf.0)),
            Some(Place::Leaf(l)) => l,
        };
        if self.leaves[l].detached || self.leaves[l].draining {
            return Err(HpfqError::NodeDetached(leaf.0));
        }
        pkt.validate()?;
        if self.is_idle() {
            self.busy_start = self.warped(pkt.arrival);
        }
        self.last_time = self.last_time.max(pkt.arrival);
        let root_ref = (self.warped(pkt.arrival) - self.busy_start).max(0.0);
        let bits = pkt.bits();
        let lf = &mut self.leaves[l];
        lf.fifo_bytes += u64::from(pkt.len_bytes);
        self.slab.push_back(&mut lf.fifo, pkt);
        let (p, slot) = (lf.parent, lf.slot);
        let was_offering = std::mem::replace(&mut lf.offering, true);
        if !was_offering {
            lf.head_bits = bits;
        }
        if O::ENABLED {
            self.obs.on_enqueue(&EnqueueEvent {
                time: pkt.arrival,
                link: self.link,
                leaf: leaf.0,
                pkt: pkt_info(&pkt),
                queue_depth: lf.fifo.len(),
                queue_bytes: lf.fifo_bytes,
            });
        }
        if was_offering {
            // The leaf already offers a packet, so no head changes upstream
            // — but the arrival still joins the emulated GPS backlog of
            // every ancestor (GPS-exact policies track it; others ignore
            // the hint).
            self.hint_up(p, slot, bits, root_ref);
            return Ok(());
        }
        if O::ENABLED {
            self.obs.on_node_backlog(&BacklogEvent {
                time: pkt.arrival,
                link: self.link,
                node: leaf.0,
                active: true,
            });
        }
        let hint = if p == 0 { Some(root_ref) } else { None };
        self.inners[p as usize]
            .sched
            .backlog(SessionId(slot as usize), bits, hint);
        self.bubble_up(p as usize, bits, root_ref);
        Ok(())
    }

    /// Announces an arrival of `bits` bits to the scheduler of internal
    /// node `p` — whose session `slot` was *already* backlogged, and
    /// therefore received no `backlog()` call — and to every scheduler
    /// above it. Keeps the GPS-emulating policies' per-session fluid
    /// backlogs exact; a tree without such a policy returns at once.
    fn hint_up(&mut self, mut p: u32, mut slot: u32, bits: f64, root_ref: f64) {
        if !self.wants_hints {
            return;
        }
        while p != NIL {
            let n = &mut self.inners[p as usize];
            let rn = if p == 0 { Some(root_ref) } else { None };
            n.sched.arrival_hint(SessionId(slot as usize), bits, rn);
            (p, slot) = (n.parent, n.slot);
        }
    }

    /// Whether no packet is queued anywhere and the link is idle.
    pub fn is_idle(&self) -> bool {
        !self.transmitting
            && self.inners[0].head_leaf == NIL
            && self.inners[0].sched.backlogged() == 0
    }

    /// The head `child` offers, as `(leaf index, bits)`.
    #[inline]
    fn head_of(&self, child: Ref) -> Option<(u32, f64)> {
        match child.place() {
            Place::Leaf(l) => {
                let lf = &self.leaves[l];
                lf.offering.then_some((l as u32, lf.head_bits))
            }
            Place::Inner(n) => {
                let nd = &self.inners[n];
                (nd.head_leaf != NIL).then_some((nd.head_leaf, nd.head_bits))
            }
        }
    }

    /// RESTART-NODE at internal node `n`: select the next session and adopt
    /// its child's head. Returns the adopted head's length in bits, or
    /// `None` if no child is backlogged.
    #[inline]
    fn restart_node(&mut self, n: usize) -> Option<f64> {
        let sched = &mut self.inners[n].sched;
        let v_before = if O::ENABLED {
            sched.virtual_time()
        } else {
            0.0
        };
        let slot = sched.select_next()?;
        let child = self.inners[n].children[slot.0];
        #[expect(
            clippy::expect_used,
            reason = "select_next picked this child: it offers a head"
        )]
        let (head_leaf, head_bits) = self.head_of(child).expect("selected child offers a head");
        if O::ENABLED {
            self.emit_dispatch(n, slot, child, head_bits, v_before);
        }
        let nd = &mut self.inners[n];
        nd.head_leaf = head_leaf;
        nd.head_bits = head_bits;
        nd.active_child = child;
        Some(head_bits)
    }

    /// RESTART-NODE chain for newly backlogged subtrees: every ancestor not
    /// yet offering a packet selects one and offers it upward. Ancestors
    /// above the first node that already offered a packet are told about
    /// the arrival via [`NodeScheduler::arrival_hint`] instead.
    fn bubble_up(&mut self, from: usize, bits: f64, root_ref: f64) {
        let mut n = from;
        while self.inners[n].head_leaf == NIL {
            #[expect(
                clippy::expect_used,
                reason = "a descendant of n just became backlogged"
            )]
            let head_bits = self
                .restart_node(n)
                .expect("bubble_up reached a node with no backlogged child");
            if O::ENABLED {
                let t = self.last_time;
                self.obs.on_node_backlog(&BacklogEvent {
                    time: t,
                    link: self.link,
                    node: self.inner_ids[n] as usize,
                    active: true,
                });
            }
            let (p, pslot) = (self.inners[n].parent, self.inners[n].slot);
            if p == NIL {
                return; // root now offers a packet; the link may start it
            }
            let hint = if p == 0 { Some(root_ref) } else { None };
            self.inners[p as usize]
                .sched
                .backlog(SessionId(pslot as usize), head_bits, hint);
            n = p as usize;
        }
        // `n` was already offering a packet before this arrival: the bits
        // still extend the emulated GPS backlog of every remaining
        // ancestor.
        self.hint_up(self.inners[n].parent, self.inners[n].slot, bits, root_ref);
    }

    /// Builds and emits the [`DispatchEvent`] for internal node `n` having
    /// just selected `slot`, which is `child` offering `head_bits` (tags are
    /// read *after* the selection, while the winner is still the stamped
    /// head; `v_before` was captured before).
    fn emit_dispatch(
        &mut self,
        n: usize,
        slot: SessionId,
        child: Ref,
        head_bits: f64,
        v_before: f64,
    ) {
        let sched = &self.inners[n].sched;
        let (start_tag, finish_tag) = sched.tags(slot);
        let e = DispatchEvent {
            time: self.last_time,
            link: self.link,
            node: self.inner_ids[n] as usize,
            session: slot.0,
            child: self.id_of(child),
            start_tag,
            finish_tag,
            phi: sched.phi(slot),
            v_before,
            v_after: sched.virtual_time(),
            head_bits,
            node_rate: sched.rate_bps(),
            policy: sched.name(),
        };
        // lint:allow(L006): every emit_dispatch call site is behind an O::ENABLED gate
        self.obs.on_dispatch(&e);
    }

    /// Whether the root currently offers a packet the link could transmit.
    pub fn has_pending(&self) -> bool {
        self.inners[0].head_leaf != NIL
    }

    /// Whether a transmission is in progress (between
    /// [`Hierarchy::start_transmission`] and
    /// [`Hierarchy::complete_transmission`]).
    pub fn is_transmitting(&self) -> bool {
        self.transmitting
    }

    /// The link takes the root's offered packet for transmission; returns a
    /// copy of it (the packet stays in its leaf queue until
    /// [`Hierarchy::complete_transmission`]). `None` if nothing is pending.
    ///
    /// # Panics
    /// If a transmission is already in progress.
    pub fn start_transmission(&mut self) -> Option<Packet> {
        let t = self.last_time;
        self.start_transmission_at(t)
    }

    /// [`Hierarchy::start_transmission`] with the exact real start time, so
    /// emitted [`TxEvent`]s carry it (drivers with a clock — the simulator —
    /// use this form).
    pub fn start_transmission_at(&mut self, now: f64) -> Option<Packet> {
        assert!(!self.transmitting, "transmission already in progress");
        let leaf = self.inners[0].head_leaf;
        if leaf == NIL {
            return None;
        }
        self.transmitting = true;
        self.last_time = self.last_time.max(now);
        #[expect(clippy::expect_used, reason = "the root's head is queued at that leaf")]
        let pkt = *self
            .slab
            .front(&self.leaves[leaf as usize].fifo)
            .expect("head refers to a queued packet");
        if O::ENABLED {
            self.obs.on_tx_start(&TxEvent {
                time: now,
                link: self.link,
                leaf: self.leaf_ids[leaf as usize] as usize,
                pkt: pkt_info(&pkt),
            });
        }
        Some(pkt)
    }

    /// RESET-PATH + RESTART-NODE chain at the end of a transmission: pops
    /// the transmitted packet from its leaf, re-offers successors along the
    /// path, and pre-selects the root's next packet. Returns the popped
    /// packet.
    ///
    /// # Panics
    /// If no transmission is in progress.
    pub fn complete_transmission(&mut self) -> Packet {
        let t = self.last_time;
        self.complete_transmission_at(t)
    }

    /// [`Hierarchy::complete_transmission`] with the exact real completion
    /// time for the emitted [`TxEvent`].
    pub fn complete_transmission_at(&mut self, now: f64) -> Packet {
        assert!(self.transmitting, "no transmission in progress");
        self.transmitting = false;
        self.last_time = self.last_time.max(now);

        // Walk the in-flight path root → leaf, clearing each head on the
        // way down. The buffer of internal nodes visited is owned by the
        // hierarchy and reused across completions, so the steady-state
        // cycle performs no heap allocation.
        let mut path = std::mem::take(&mut self.path_scratch);
        path.clear();
        let mut at = Ref::inner(0);
        let leaf = loop {
            assert!(at != Ref::NONE, "the in-flight path must end at a leaf");
            match at.place() {
                Place::Leaf(l) => break l,
                Place::Inner(n) => {
                    path.push(n as u32);
                    let nd = &mut self.inners[n];
                    at = std::mem::replace(&mut nd.active_child, Ref::NONE);
                    nd.head_leaf = NIL;
                }
            }
        };

        // Dequeue the transmitted packet and re-offer the leaf's next head.
        let lf = &mut self.leaves[leaf];
        #[expect(
            clippy::expect_used,
            reason = "the transmitted head was queued at this leaf"
        )]
        let pkt = self
            .slab
            .pop_front(&mut lf.fifo)
            .expect("transmitted packet was queued");
        lf.fifo_bytes -= u64::from(pkt.len_bytes);
        let next_bits = self.slab.front(&lf.fifo).map(Packet::bits);
        lf.offering = next_bits.is_some();
        let (lp, lslot) = (lf.parent as usize, SessionId(lf.slot as usize));
        if O::ENABLED {
            self.obs.on_tx_complete(&TxEvent {
                time: now,
                link: self.link,
                leaf: self.leaf_ids[leaf] as usize,
                pkt: pkt_info(&pkt),
            });
        }
        match next_bits {
            Some(bits) => {
                lf.head_bits = bits;
                self.inners[lp].sched.requeue(lslot, Some(bits));
            }
            None => {
                self.requeue_empty(Ref::leaf(leaf), lp, lslot);
                if self.leaves[leaf].draining {
                    // A remove_leaf() was deferred while this head finished
                    // service; the queue is now empty, so complete it.
                    self.detach_finalize(Ref::leaf(leaf));
                }
            }
        }

        // RESTART-NODE bottom-up along the path.
        for &n in path.iter().rev() {
            let n = n as usize;
            let head_bits = self.restart_node(n);
            let (p, pslot) = (self.inners[n].parent, self.inners[n].slot);
            if p != NIL {
                let pslot = SessionId(pslot as usize);
                match head_bits {
                    Some(_) => self.inners[p as usize].sched.requeue(pslot, head_bits),
                    None => self.requeue_empty(Ref::inner(n), p as usize, pslot),
                }
            } else if O::ENABLED && head_bits.is_none() {
                // The root itself drained: its busy period ended when its
                // own scheduler emptied (detected inside
                // select_next/requeue); report the server going idle.
                self.obs.on_node_backlog(&BacklogEvent {
                    time: now,
                    link: self.link,
                    node: 0,
                    active: false,
                });
            }
        }
        self.path_scratch = path;
        pkt
    }

    /// Reports `node` idle to its parent (`requeue(slot, None)`), emitting
    /// the backlog transition and — if the parent's scheduler thereby
    /// drained and reset its virtual clock — the busy-period reset.
    fn requeue_empty(&mut self, node: Ref, parent: usize, slot: SessionId) {
        let t = self.last_time;
        if O::ENABLED {
            self.obs.on_node_backlog(&BacklogEvent {
                time: t,
                link: self.link,
                node: self.id_of(node),
                active: false,
            });
        }
        let sched = &mut self.inners[parent].sched;
        sched.requeue(slot, None);
        if O::ENABLED && sched.backlogged() == 0 {
            self.obs.on_busy_reset(&BusyResetEvent {
                time: t,
                link: self.link,
                node: self.inner_ids[parent] as usize,
            });
        }
    }

    /// Convenience for order-only tests and simple examples:
    /// `start_transmission` + `complete_transmission` in one step.
    pub fn dequeue(&mut self) -> Option<Packet> {
        self.start_transmission()?;
        Some(self.complete_transmission())
    }

    // ----- introspection ---------------------------------------------------

    /// Number of nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.refs.len()
    }

    /// Guaranteed rate of `node` in bits/s.
    pub fn rate(&self, node: NodeId) -> f64 {
        self.shares[node.0].rate
    }

    /// Share of `node` relative to its parent.
    pub fn phi(&self, node: NodeId) -> f64 {
        self.shares[node.0].phi
    }

    /// `node`'s parent as an index into `inners` ([`NIL`] for the root),
    /// and its session slot there.
    fn parent_slot(&self, node: Ref) -> (u32, u32) {
        match node.place() {
            Place::Leaf(l) => (self.leaves[l].parent, self.leaves[l].slot),
            Place::Inner(n) => (self.inners[n].parent, self.inners[n].slot),
        }
    }

    /// Parent of `node`, or `None` for the root.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        let (p, _) = self.parent_slot(self.refs[node.0]);
        (p != NIL).then(|| NodeId(self.inner_ids[p as usize] as usize))
    }

    /// Whether `node` is a leaf.
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.refs[node.0].is_leaf()
    }

    /// The record of leaf `leaf`; `None` for an internal node.
    fn leaf_record(&self, leaf: NodeId) -> Option<&Leaf> {
        match self.refs[leaf.0].place() {
            Place::Leaf(l) => Some(&self.leaves[l]),
            Place::Inner(_) => None,
        }
    }

    /// Queued packets in a leaf's FIFO (including one in flight).
    pub fn leaf_queue_len(&self, leaf: NodeId) -> usize {
        debug_assert!(self.is_leaf(leaf));
        self.leaf_record(leaf).map_or(0, |lf| lf.fifo.len())
    }

    /// Queued bytes in a leaf's FIFO (including one in flight).
    pub fn leaf_queue_bytes(&self, leaf: NodeId) -> u64 {
        debug_assert!(self.is_leaf(leaf));
        self.leaf_record(leaf).map_or(0, |lf| lf.fifo_bytes)
    }

    /// Virtual time of an internal node's scheduler.
    ///
    /// # Panics
    /// If `node` is a leaf.
    #[expect(
        clippy::panic,
        reason = "diagnostic accessor documented for internal nodes"
    )]
    pub fn node_virtual_time(&self, node: NodeId) -> f64 {
        match self.refs[node.0].place() {
            Place::Inner(n) => self.inners[n].sched.virtual_time(),
            Place::Leaf(_) => panic!("internal node"),
        }
    }

    /// Ancestor chain of `node` from its parent up to the root — the
    /// `p(i), p²(i), …, p^H(i) = R` of Theorems 1–2. Non-allocating; see
    /// [`Hierarchy::ancestors`] for the collected form.
    pub fn ancestors_iter(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let (mut p, _) = self.parent_slot(self.refs[node.0]);
        std::iter::from_fn(move || {
            if p == NIL {
                return None;
            }
            let id = NodeId(self.inner_ids[p as usize] as usize);
            p = self.inners[p as usize].parent;
            Some(id)
        })
    }

    /// Ancestor chain of `node`, collected ([`Hierarchy::ancestors_iter`]
    /// is the non-allocating form).
    pub fn ancestors(&self, node: NodeId) -> Vec<NodeId> {
        self.ancestors_iter(node).collect()
    }

    /// All leaf node ids, in creation order (including removed ones; see
    /// [`Hierarchy::active_leaves_iter`]). Non-allocating; see
    /// [`Hierarchy::leaves`] for the collected form.
    pub fn leaves_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.leaf_ids.iter().map(|&id| NodeId(id as usize))
    }

    /// All leaf node ids, collected ([`Hierarchy::leaves_iter`] is the
    /// non-allocating form).
    pub fn leaves(&self) -> Vec<NodeId> {
        self.leaves_iter().collect()
    }

    /// Leaf node ids still attached to the tree, in creation order.
    /// Non-allocating; see [`Hierarchy::active_leaves`] for the collected
    /// form.
    pub fn active_leaves_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.leaves
            .iter()
            .zip(&self.leaf_ids)
            .filter(|(lf, _)| !lf.detached && !lf.draining)
            .map(|(_, &id)| NodeId(id as usize))
    }

    /// Leaf node ids still attached, collected
    /// ([`Hierarchy::active_leaves_iter`] is the non-allocating form).
    pub fn active_leaves(&self) -> Vec<NodeId> {
        self.active_leaves_iter().collect()
    }

    /// Packet slots the leaf queues have allocated between them: the most
    /// packets ever queued at once (slots of departed and purged packets
    /// are reused). Exposed so churn harnesses can assert it stops growing.
    pub fn packet_slots(&self) -> usize {
        self.slab.slots()
    }

    /// Sum of the shares currently allocated to `node`'s attached children
    /// — the quantity validated against 1.0 when adding a child. Exposed
    /// so churn harnesses can assert it never overflows or goes negative.
    pub fn allocated_share(&self, node: NodeId) -> f64 {
        self.shares[node.0].child_phi_sum
    }
}

/// What [`Hierarchy::set_link_rate_factor`] accepts: a finite factor, at
/// least 0.
fn is_rate_factor(factor: f64) -> bool {
    factor.is_finite() && factor >= 0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixed::{MixedScheduler, SchedulerKind};

    fn wf2qp_node(rate: f64) -> MixedScheduler {
        SchedulerKind::Wf2qPlus.build(rate)
    }

    fn wf2qp(rate: f64) -> Hierarchy<MixedScheduler> {
        Hierarchy::builder(rate, wf2qp_node).build()
    }

    fn pkt(id: u64, flow: u32) -> Packet {
        Packet::new(id, flow, 125, 0.0) // 1000 bits
    }

    #[test]
    fn depth_one_equal_weights_alternate() {
        let mut h = wf2qp(1000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        for i in 0..4 {
            h.enqueue(a, pkt(i, 0));
            h.enqueue(b, pkt(100 + i, 1));
        }
        let mut flows = Vec::new();
        while let Some(p) = h.dequeue() {
            flows.push(p.flow);
        }
        assert_eq!(flows.len(), 8);
        for w in flows.windows(2) {
            assert_ne!(w[0], w[1], "equal weights must alternate: {flows:?}");
        }
    }

    /// The §2.2 topology: root children A (0.8) and leaf B (0.2); A's
    /// children A1 (0.75 absolute = 0.9375 of A) and A2 (0.05 absolute =
    /// 0.0625 of A). With A1 idle, A2 and B split the link 80/20; once A1
    /// becomes active the split is 75/5/20.
    #[test]
    fn hierarchical_excess_distribution() {
        let mut bld = Hierarchy::builder(1000.0, wf2qp_node);
        let root = bld.root();
        let a = bld.add_internal(root, 0.8).unwrap();
        let b = bld.add_leaf(root, 0.2).unwrap();
        let a1 = bld.add_leaf(a, 0.9375).unwrap();
        let a2 = bld.add_leaf(a, 0.0625).unwrap();
        let mut h = bld.build();

        // Phase 1: A1 idle, A2 and B heavily backlogged.
        for i in 0..200 {
            h.enqueue(a2, pkt(i, 2));
            h.enqueue(b, pkt(1000 + i, 3));
        }
        let mut counts = [0usize; 4];
        for _ in 0..100 {
            let p = h.dequeue().unwrap();
            counts[p.flow as usize] += 1;
        }
        assert!(
            (counts[2] as i64 - 80).unsigned_abs() <= 2,
            "A2 should get ~80%: {counts:?}"
        );
        assert!(
            (counts[3] as i64 - 20).unsigned_abs() <= 2,
            "B should get ~20%: {counts:?}"
        );

        // Phase 2: A1 becomes active.
        for i in 0..200 {
            h.enqueue(a1, pkt(2000 + i, 1));
        }
        let mut counts = [0usize; 4];
        for _ in 0..100 {
            let p = h.dequeue().unwrap();
            counts[p.flow as usize] += 1;
        }
        assert!(
            (counts[1] as i64 - 75).unsigned_abs() <= 2,
            "A1 should get ~75%: {counts:?}"
        );
        assert!(
            (counts[2] as i64 - 5).unsigned_abs() <= 2,
            "A2 should get ~5%: {counts:?}"
        );
        assert!(
            (counts[3] as i64 - 20).unsigned_abs() <= 2,
            "B should get ~20%: {counts:?}"
        );
    }

    #[test]
    fn per_leaf_fifo_order_is_preserved() {
        let mut h = wf2qp(8.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        for i in 0..10 {
            h.enqueue(a, Packet::new(i, 0, 1 + (i as u32 % 3), 0.0));
            h.enqueue(b, Packet::new(100 + i, 1, 2, 0.0));
        }
        let mut last_a = None;
        let mut last_b = None;
        while let Some(p) = h.dequeue() {
            let last = if p.flow == 0 {
                &mut last_a
            } else {
                &mut last_b
            };
            if let Some(prev) = *last {
                assert!(p.id > prev, "per-flow FIFO violated");
            }
            *last = Some(p.id);
        }
    }

    /// The leaves' packets are interleaved in one slab; each leaf must
    /// still see exactly its own, in arrival order, whatever the others do.
    #[test]
    fn many_leaves_interleaved_in_one_slab_each_stay_fifo() {
        const LEAVES: usize = 37;
        let mut h = wf2qp(1e6);
        let root = h.root();
        let leaves: Vec<NodeId> = (0..LEAVES)
            .map(|_| h.add_leaf(root, 1.0 / LEAVES as f64).unwrap())
            .collect();
        let mut state = 0x9e37_79b9_u64;
        let mut sent = vec![Vec::new(); LEAVES];
        let mut served = vec![Vec::new(); LEAVES];
        let mut id = 0;
        for _ in 0..if cfg!(miri) { 200 } else { 5000 } {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let flow = (state >> 33) as usize % LEAVES;
            if (state >> 20) % 5 < 3 {
                id += 1;
                let len = 40 + (state >> 40) as u32 % 1400;
                h.enqueue(leaves[flow], Packet::new(id, flow as u32, len, 0.0));
                sent[flow].push(id);
            } else if let Some(p) = h.dequeue() {
                served[p.flow as usize].push(p.id);
            }
            let queued: usize = leaves.iter().map(|&l| h.leaf_queue_len(l)).sum();
            assert!(queued <= h.packet_slots());
        }
        while let Some(p) = h.dequeue() {
            served[p.flow as usize].push(p.id);
        }
        assert_eq!(served, sent);
    }

    #[test]
    fn arrivals_mid_transmission_do_not_disturb_the_path() {
        let mut h = wf2qp(1000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        h.enqueue(a, pkt(1, 0));
        let started = h.start_transmission().unwrap();
        assert_eq!(started.id, 1);
        // b's packet arrives mid-flight; the in-flight head is untouched.
        h.enqueue(b, pkt(2, 1));
        assert!(h.is_transmitting());
        let done = h.complete_transmission();
        assert_eq!(done.id, 1);
        // Root pre-selected b's packet during completion.
        assert!(h.has_pending());
        assert_eq!(h.dequeue().unwrap().id, 2);
        assert!(!h.has_pending());
    }

    #[test]
    fn drains_to_empty_and_restarts() {
        let mut h = wf2qp(1000.0);
        let root = h.root();
        let a = h.add_leaf(root, 1.0).unwrap();
        h.enqueue(a, pkt(1, 0));
        assert_eq!(h.dequeue().unwrap().id, 1);
        assert!(h.dequeue().is_none());
        assert_eq!(h.leaf_queue_len(a), 0);
        h.enqueue(a, pkt(2, 0));
        assert_eq!(h.dequeue().unwrap().id, 2);
    }

    #[test]
    fn share_validation() {
        let mut h = wf2qp(1000.0);
        let root = h.root();
        assert!(matches!(
            h.add_leaf(root, 0.0),
            Err(HpfqError::InvalidShare(_))
        ));
        assert!(matches!(
            h.add_leaf(root, f64::NAN),
            Err(HpfqError::InvalidShare(_))
        ));
        let a = h.add_leaf(root, 0.7).unwrap();
        assert!(matches!(
            h.add_leaf(root, 0.4),
            Err(HpfqError::ShareOverflow { .. })
        ));
        assert!(matches!(h.add_leaf(a, 0.1), Err(HpfqError::NotInternal(_))));
        assert!(h.add_leaf(root, 0.3).is_ok());
    }

    /// A round-robin child needs a quantum that sends a packet in bounded
    /// rounds: a share of 1e-157 used to be accepted, and then RR's round
    /// counter saturated and DRR's ring spun ~1e157 times for one packet.
    #[test]
    fn round_robin_children_below_the_minimum_share_are_refused() {
        use crate::pifo::rank::MIN_ROUND_ROBIN_SHARE;
        for kind in [SchedulerKind::Rr, SchedulerKind::Drr] {
            let mut h = Hierarchy::builder(1e6, move |r| kind.build(r)).build();
            let root = h.root();
            for phi in [1e-157, MIN_ROUND_ROBIN_SHARE / 2.0] {
                let refused = h.add_leaf(root, phi);
                assert!(
                    matches!(refused, Err(HpfqError::InvalidShare(_))),
                    "{kind:?}"
                );
            }
            let leaf = h.add_leaf(root, MIN_ROUND_ROBIN_SHARE).unwrap();
            h.enqueue(leaf, Packet::new(1, 0, 1, 0.0));
            assert_eq!(h.dequeue().map(|p| p.id), Some(1), "{kind:?}");
        }
        // Other policies take any positive share.
        let mut h = wf2qp(1e6);
        assert!(h.add_leaf(h.root(), 1e-157).is_ok());
    }

    #[test]
    fn try_enqueue_rejects_malformed_and_detached() {
        let mut h = wf2qp(1000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let mut bad = pkt(1, 0);
        bad.len_bytes = 0;
        assert!(matches!(
            h.try_enqueue(a, bad),
            Err(HpfqError::InvalidPacket { .. })
        ));
        assert!(matches!(
            h.try_enqueue(NodeId(99), pkt(1, 0)),
            Err(HpfqError::UnknownNode(99))
        ));
        assert!(matches!(
            h.try_enqueue(root, pkt(1, 0)),
            Err(HpfqError::NotALeaf(0))
        ));
        h.remove_leaf(a).unwrap();
        assert!(matches!(
            h.try_enqueue(a, pkt(1, 0)),
            Err(HpfqError::NodeDetached(_))
        ));
        // The rejected enqueues left the tree untouched.
        assert!(h.is_idle());
    }

    #[test]
    fn remove_idle_leaf_frees_its_share() {
        let mut h = wf2qp(1000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.7).unwrap();
        let _b = h.add_leaf(root, 0.3).unwrap();
        assert!(matches!(
            h.add_leaf(root, 0.5),
            Err(HpfqError::ShareOverflow { .. })
        ));
        assert!(h.remove_leaf(a).unwrap().is_empty());
        assert!(h.is_detached(a));
        assert!((h.allocated_share(root) - 0.3).abs() < 1e-12);
        // The freed share is allocatable again.
        let c = h.add_leaf(root, 0.6).unwrap();
        assert!(!h.is_detached(c));
        assert_eq!(h.active_leaves().len(), 2);
        assert_eq!(h.leaves().len(), 3);
    }

    #[test]
    fn remove_backlogged_leaf_drains_head_then_detaches() {
        let mut h = wf2qp(1000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        for i in 0..3 {
            h.enqueue(a, pkt(i, 0));
            h.enqueue(b, pkt(100 + i, 1));
        }
        // a offers its head; removal purges the two packets behind it.
        let purged = h.remove_leaf(a).unwrap();
        assert_eq!(purged.len(), 2);
        assert_eq!(purged[0].id, 1, "purged in arrival order");
        assert!(h.is_detached(a));
        // Double removal is an error, as is re-enqueueing.
        assert!(matches!(h.remove_leaf(a), Err(HpfqError::NodeDetached(_))));
        // The in-queue head still goes out; everything else served is b's.
        let mut served = Vec::new();
        while let Some(p) = h.dequeue() {
            served.push(p.flow);
        }
        assert_eq!(served.iter().filter(|&&f| f == 0).count(), 1);
        assert_eq!(served.iter().filter(|&&f| f == 1).count(), 3);
        // Detach finalized once the head was served: share freed.
        assert!((h.allocated_share(root) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn remove_leaf_mid_transmission_lets_the_flight_finish() {
        let mut h = wf2qp(1000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        h.enqueue(a, pkt(1, 0));
        h.enqueue(a, pkt(2, 0));
        h.enqueue(b, pkt(3, 1));
        let started = h.start_transmission().unwrap();
        assert_eq!(started.flow, 0);
        let purged = h.remove_leaf(a).unwrap();
        assert_eq!(purged.len(), 1); // pkt 2; pkt 1 is in flight
        let done = h.complete_transmission();
        assert_eq!(done.id, 1);
        assert!(h.is_detached(a));
        assert_eq!(h.dequeue().unwrap().id, 3);
        assert!(h.dequeue().is_none());
        assert!((h.allocated_share(root) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn remove_internal_requires_empty_subtree() {
        let mut bld = Hierarchy::builder(1000.0, wf2qp_node);
        let root = bld.root();
        let cls = bld.add_internal(root, 0.8).unwrap();
        let l1 = bld.add_leaf(cls, 0.5).unwrap();
        let mut h = bld.build();
        assert!(matches!(
            h.remove_internal(cls),
            Err(HpfqError::HasChildren(_))
        ));
        h.remove_leaf(l1).unwrap();
        h.remove_internal(cls).unwrap();
        assert!(h.is_detached(cls));
        assert_eq!(h.allocated_share(root), 0.0);
        assert!(matches!(
            h.add_leaf(cls, 0.1),
            Err(HpfqError::NodeDetached(_))
        ));
        assert!(matches!(
            h.remove_internal(root),
            Err(HpfqError::UnknownNode(0))
        ));
        // Full share is allocatable again.
        h.add_leaf(root, 1.0).unwrap();
    }

    #[test]
    fn churn_add_remove_mid_run_keeps_serving() {
        let mut h = wf2qp(1000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        for i in 0..4 {
            h.enqueue(a, pkt(i, 0));
            h.enqueue(b, pkt(10 + i, 1));
        }
        let mut v_last = 0.0;
        for _ in 0..2 {
            h.dequeue().unwrap();
            let v = h.node_virtual_time(root);
            assert!(v >= v_last);
            v_last = v;
        }
        // Churn: b leaves, c joins with its share, mid-busy-period. The
        // draining head holds b's share until it is served, so dequeue
        // until the allocation frees up.
        h.remove_leaf(b).unwrap();
        let mut served = 0;
        while h.allocated_share(root) > 0.5 + 1e-12 {
            assert!(h.dequeue().is_some(), "drain must complete");
            served += 1;
            v_last = h.node_virtual_time(root);
        }
        let c = h.add_leaf(root, 0.5).unwrap();
        for i in 0..4 {
            h.enqueue(c, pkt(20 + i, 2));
        }
        while let Some(_p) = h.dequeue() {
            let v = h.node_virtual_time(root);
            assert!(
                v >= v_last || h.is_idle(),
                "virtual time went backwards mid-busy-period"
            );
            v_last = v;
            served += 1;
        }
        // 2 already served; remaining: 2 of a's, b's drained head (<=1 of
        // its 2 remaining), c's 4.
        assert!(served >= 7, "served {served}");
        assert!(h.is_detached(b));
        assert!(!h.is_detached(c));
    }

    /// A degraded link (here: half the nominal rate) must not corrupt the
    /// GPS-exact policies' virtual time. Without the reference-clock
    /// resync, real elapsed busy time outruns the work-based tag
    /// arithmetic, `V_GPS` sweeps past every stamped finish tag at the
    /// minimum slope, and the next re-stamp pulls it *backwards* — a
    /// monotonicity violation the invariant checker flags.
    #[test]
    fn degraded_link_resync_keeps_gps_virtual_time_monotone() {
        use hpfq_obs::InvariantObserver;

        let mut bld = Hierarchy::builder_with_observer(
            8000.0,
            |r| SchedulerKind::Wfq.build(r),
            InvariantObserver::new(),
        );
        let root = bld.root();
        let a = bld.add_leaf(root, 0.5).unwrap();
        let b = bld.add_leaf(root, 0.5).unwrap();
        let mut h: Hierarchy<MixedScheduler, InvariantObserver> = bld.build();
        // The physical link now delivers half the nominal rate: a 1000-bit
        // packet takes 0.25 s instead of 0.125 s.
        h.set_link_rate_factor(0.0, 0.5).unwrap();

        let mut id = 0u64;
        let mut t_arr = 0.0;
        let mut now = 0.0;
        for _ in 0..100 {
            // Mild overload at the degraded rate: one packet per leaf every
            // 0.4 s against 4 served per second. Arrivals land in event
            // order: those due during a service slot are enqueued before
            // the slot completes.
            while t_arr <= now + 1e-12 {
                h.try_enqueue(a, Packet::new(id, 0, 125, t_arr)).unwrap();
                h.try_enqueue(b, Packet::new(id + 1, 1, 125, t_arr))
                    .unwrap();
                id += 2;
                t_arr += 0.4;
            }
            assert!(h.start_transmission_at(now).is_some());
            let end = now + 0.25;
            while t_arr < end - 1e-12 {
                h.try_enqueue(a, Packet::new(id, 0, 125, t_arr)).unwrap();
                h.try_enqueue(b, Packet::new(id + 1, 1, 125, t_arr))
                    .unwrap();
                id += 2;
                t_arr += 0.4;
            }
            now = end;
            h.complete_transmission_at(now);
        }
        assert!(h.observer().is_clean(), "{}", h.observer().summary());
    }

    #[test]
    fn rate_factor_rejects_non_finite_and_negative() {
        let mut h = wf2qp(1000.0);
        assert!(matches!(
            h.set_link_rate_factor(0.0, f64::NAN),
            Err(HpfqError::InvalidRate(_))
        ));
        assert!(matches!(
            h.set_link_rate_factor(0.0, -0.5),
            Err(HpfqError::InvalidRate(_))
        ));
        // An outage (factor 0) and a restore are both valid.
        h.set_link_rate_factor(1.0, 0.0).unwrap();
        h.set_link_rate_factor(2.0, 1.0).unwrap();
    }

    #[test]
    fn leaf_record_is_one_cache_line() {
        // Three `u32`s of FIFO chain, two 8-byte counters, two `u32` links
        // and three flags — well inside one line; a queue that owned a
        // buffer again would be 64.
        assert_eq!(std::mem::size_of::<Leaf>(), 40);
    }

    /// Leaves and internal nodes live in separate arrays, but the ids
    /// callers hold are what they always were: one dense sequence in
    /// creation order, through mid-run churn and removals.
    #[test]
    fn node_ids_stay_dense_in_creation_order() {
        let mut bld = Hierarchy::builder(1000.0, wf2qp_node);
        let root = bld.root();
        let l1 = bld.add_leaf(root, 0.1).unwrap();
        let a = bld.add_internal(root, 0.5).unwrap();
        let l3 = bld.add_leaf(a, 0.25).unwrap();
        let b = bld.add_internal(a, 0.5).unwrap();
        let l5 = bld.add_leaf(b, 0.5).unwrap();
        let l6 = bld.add_leaf(root, 0.1).unwrap();
        let mut h = bld.build();
        assert_eq!(
            [root, l1, a, l3, b, l5, l6].map(NodeId::index),
            [0, 1, 2, 3, 4, 5, 6]
        );

        // Churn while a packet of l5 is in flight.
        h.enqueue(l5, pkt(1, 5));
        h.enqueue(l5, pkt(2, 5));
        assert_eq!(h.start_transmission().unwrap().id, 1);
        let l7 = h.add_leaf(b, 0.25).unwrap();
        let c = h.add_internal_with(root, 0.2, wf2qp_node(200.0)).unwrap();
        let l9 = h.add_leaf(c, 1.0).unwrap();
        assert_eq!([l7, c, l9].map(NodeId::index), [7, 8, 9]);
        assert_eq!(h.node_count(), 10);
        assert_eq!(h.leaves(), vec![l1, l3, l5, l6, l7, l9]);
        let parents: Vec<_> = (0..10).map(|i| h.parent(NodeId(i))).collect();
        assert_eq!(
            parents,
            [
                None,
                Some(root),
                Some(root),
                Some(a),
                Some(a),
                Some(b),
                Some(root),
                Some(b),
                Some(root),
                Some(c)
            ]
        );
        assert_eq!(h.ancestors_iter(l7).collect::<Vec<_>>(), vec![b, a, root]);
        assert_eq!(h.ancestors(l9), vec![c, root]);
        assert_eq!(h.ancestors(root), vec![]);
        assert_eq!(h.rate(l7), 1000.0 * 0.5 * 0.5 * 0.25);
        assert_eq!((h.phi(c), h.rate(l9)), (0.2, 200.0));

        // l5 is removed with its head in flight: it drains, holding its
        // share until the completion.
        assert_eq!(h.remove_leaf(l5).unwrap().len(), 1);
        assert!(h.is_detached(l5));
        assert_eq!(h.active_leaves(), vec![l1, l3, l6, l7, l9]);
        assert_eq!(h.leaves().len(), 6);
        assert_eq!(h.allocated_share(b), 0.75);
        assert_eq!(h.complete_transmission().id, 1);
        assert_eq!(h.allocated_share(b), 0.25);

        assert!(h.remove_leaf(l9).unwrap().is_empty());
        h.remove_internal(c).unwrap();
        assert!(h.is_detached(c) && !h.is_leaf(c) && h.is_leaf(l9));
        assert!((h.allocated_share(root) - 0.7).abs() < 1e-12);
        let l10 = h.add_leaf(root, 0.2).unwrap();
        assert_eq!(l10.index(), 10);
        assert_eq!(h.leaves(), vec![l1, l3, l5, l6, l7, l9, l10]);
        assert_eq!(
            h.active_leaves_iter().collect::<Vec<_>>(),
            vec![l1, l3, l6, l7, l10]
        );
        h.enqueue(l10, pkt(3, 10));
        h.enqueue(l7, pkt(4, 7));
        assert_eq!(std::iter::from_fn(|| h.dequeue()).count(), 2);
    }

    #[test]
    fn introspection() {
        let mut bld = Hierarchy::builder(1000.0, wf2qp_node);
        let root = bld.root();
        let a = bld.add_internal(root, 0.8).unwrap();
        let a1 = bld.add_leaf(a, 0.5).unwrap();
        let h = bld.build();
        assert_eq!(h.rate(a), 800.0);
        assert_eq!(h.rate(a1), 400.0);
        assert_eq!(h.ancestors(a1), vec![a, root]);
        assert_eq!(h.ancestors_iter(a1).collect::<Vec<_>>(), vec![a, root]);
        assert_eq!(h.leaves(), vec![a1]);
        assert_eq!(h.leaves_iter().collect::<Vec<_>>(), vec![a1]);
        assert_eq!(h.active_leaves_iter().collect::<Vec<_>>(), vec![a1]);
        assert!(h.is_leaf(a1));
        assert!(!h.is_leaf(a));
    }
}
