//! One store for every queued packet of a [`crate::Hierarchy`].
//!
//! A leaf's queue is a FIFO that holds one packet most of the time, and a
//! wide tree has a hundred thousand of them: a growable buffer per leaf is
//! a separate allocation per flow, sized for its deepest moment and cold
//! when its packet arrives. Here every leaf's packets are nodes of one
//! `Vec`, each linked to the packet behind it, and a leaf keeps only a
//! [`Chain`] — head, tail, length, twelve bytes — into it. Freed nodes form
//! a chain of their own through the same link field, last freed first, so
//! the node an arrival takes is the one a departure just left warm, and a
//! workload whose backlog has peaked allocates nothing further.
//!
//! Indices are `u32`, as everywhere in the hierarchy.

use crate::packet::Packet;

/// "No node": the link of a chain's last node, the head of an empty chain.
const NIL: u32 = u32::MAX;

/// One FIFO threaded through a [`PacketSlab`]. Only the slab that built a
/// chain can read or change it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chain {
    head: u32,
    tail: u32,
    len: u32,
}

impl Chain {
    pub(crate) const EMPTY: Chain = Chain {
        head: NIL,
        tail: NIL,
        len: 0,
    };

    /// Packets in the chain.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }
}

#[derive(Debug)]
struct Node {
    pkt: Packet,
    /// The packet behind this one in its chain — or, while the node is
    /// free, the node freed before it.
    next: u32,
}

/// See the [module documentation](self).
#[derive(Debug)]
pub(crate) struct PacketSlab {
    nodes: Vec<Node>,
    /// The most recently freed node; [`NIL`] when every node is in a chain.
    free: u32,
}

impl PacketSlab {
    pub(crate) fn new() -> Self {
        PacketSlab {
            nodes: Vec::new(),
            free: NIL,
        }
    }

    /// Nodes ever allocated: the high-water mark of packets queued at once.
    pub(crate) fn slots(&self) -> usize {
        self.nodes.len()
    }

    /// Appends `pkt` to `q`.
    #[inline]
    pub(crate) fn push_back(&mut self, q: &mut Chain, pkt: Packet) {
        let node = Node { pkt, next: NIL };
        let at = if self.free != NIL {
            let at = self.free;
            self.free = std::mem::replace(&mut self.nodes[at as usize], node).next;
            at
        } else {
            #[expect(
                clippy::expect_used,
                reason = "2^32 queued packets are 160 GiB of nodes; memory runs out long \
                          before the index does"
            )]
            let at = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&at| at != NIL)
                .expect("more than u32::MAX - 1 packets queued");
            self.nodes.push(node);
            at
        };
        match q.tail {
            NIL => q.head = at,
            tail => self.nodes[tail as usize].next = at,
        }
        q.tail = at;
        q.len += 1;
    }

    /// The packet at the front of `q`.
    #[inline]
    pub(crate) fn front(&self, q: &Chain) -> Option<&Packet> {
        (q.head != NIL).then(|| &self.nodes[q.head as usize].pkt)
    }

    /// Removes and returns the packet at the front of `q`.
    #[inline]
    pub(crate) fn pop_front(&mut self, q: &mut Chain) -> Option<Packet> {
        if q.head == NIL {
            return None;
        }
        let at = q.head;
        let node = &mut self.nodes[at as usize];
        q.head = std::mem::replace(&mut node.next, self.free);
        self.free = at;
        if q.head == NIL {
            q.tail = NIL;
        }
        q.len -= 1;
        Some(node.pkt)
    }

    /// Cuts `q` down to its first `keep` packets and returns the rest,
    /// front first.
    pub(crate) fn truncate(&mut self, q: &mut Chain, keep: usize) -> Vec<Packet> {
        let mut cut = Vec::with_capacity(q.len().saturating_sub(keep));
        let (mut last_kept, mut at) = (NIL, q.head);
        for _ in 0..keep.min(q.len()) {
            last_kept = at;
            at = self.nodes[at as usize].next;
        }
        match last_kept {
            NIL => q.head = NIL,
            last => self.nodes[last as usize].next = NIL,
        }
        q.tail = last_kept;
        while at != NIL {
            let node = &mut self.nodes[at as usize];
            cut.push(node.pkt);
            let next = std::mem::replace(&mut node.next, self.free);
            self.free = at;
            at = next;
        }
        q.len -= cut.len() as u32;
        cut
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;

    /// Free nodes, by walking the free chain.
    fn free_nodes(slab: &PacketSlab) -> usize {
        let mut at = slab.free;
        std::iter::from_fn(|| {
            let node = slab.nodes.get(at as usize)?;
            at = node.next;
            Some(())
        })
        .count()
    }

    /// The packet ids of `q`, front first.
    fn ids(slab: &PacketSlab, q: &Chain) -> Vec<u64> {
        let mut at = q.head;
        std::iter::from_fn(|| {
            // `NIL` is past the end of any slab `push_back` can build.
            let node = slab.nodes.get(at as usize)?;
            at = node.next;
            Some(node.pkt.id)
        })
        .collect()
    }

    #[test]
    fn many_chains_match_vecdeques_and_every_node_is_accounted_for() {
        const CHAINS: usize = 7;
        let mut slab = PacketSlab::new();
        let mut chains = [Chain::EMPTY; CHAINS];
        let mut model: Vec<VecDeque<u64>> = vec![VecDeque::new(); CHAINS];
        let mut state = 0x51ab_51ab_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as usize
        };
        let mut high_water = 0;
        for id in 0..if cfg!(miri) { 300 } else { 20_000 } {
            let c = next() % CHAINS;
            match next() % 8 {
                0..=3 => {
                    slab.push_back(&mut chains[c], Packet::new(id, c as u32, 100, 0.0));
                    model[c].push_back(id);
                }
                4..=6 => {
                    let got = slab.pop_front(&mut chains[c]).map(|p| p.id);
                    assert_eq!(got, model[c].pop_front());
                }
                _ => {
                    let keep = next() % 3;
                    let cut = slab.truncate(&mut chains[c], keep);
                    let kept = keep.min(model[c].len());
                    let want: Vec<u64> = model[c].drain(kept..).collect();
                    assert_eq!(cut.iter().map(|p| p.id).collect::<Vec<_>>(), want);
                }
            }
            let queued: usize = model.iter().map(VecDeque::len).sum();
            high_water = high_water.max(queued);
            // No node leaks and none is allocated while one is free.
            assert_eq!(free_nodes(&slab) + queued, slab.slots());
            assert_eq!(slab.slots(), high_water);
            for (chain, want) in chains.iter().zip(&model) {
                assert_eq!(chain.len(), want.len());
                assert_eq!(slab.front(chain).map(|p| p.id), want.front().copied());
                assert!(ids(&slab, chain).iter().eq(want));
            }
        }
    }

    #[test]
    fn the_last_freed_node_is_the_next_one_used() {
        let mut slab = PacketSlab::new();
        let (mut a, mut b) = (Chain::EMPTY, Chain::EMPTY);
        for id in 0..3 {
            slab.push_back(&mut a, Packet::new(id, 0, 100, 0.0));
        }
        assert_eq!(slab.pop_front(&mut a).map(|p| p.id), Some(0)); // frees node 0
        assert_eq!(slab.pop_front(&mut a).map(|p| p.id), Some(1)); // frees node 1
        slab.push_back(&mut b, Packet::new(10, 1, 100, 0.0));
        assert_eq!((b.head, slab.free), (1, 0));
    }
}
