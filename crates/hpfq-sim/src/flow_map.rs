//! [`FlowMap`]: the per-flow table behind the packet path.
//!
//! A packet reaches its flow's records by index, not by search: one probe
//! of a `u32` table when it completes a transmission (flow id → source
//! slot), and none for its statistics, whose storage slot the source slot
//! remembers ([`FlowMap::get_or_insert_hinted`]). A `BTreeMap<u32, _>`
//! would make each of those a pointer-chasing tree walk that misses the
//! caches once the flow count is large.
//!
//! Both tables are one crate-private structure, `FlowIndex`: an
//! open-addressed table of positions into storage that someone else
//! holds, the key of a position read back from that storage. `FlowMap` is
//! an index over its own dense `(flow, value)` entries; the network's
//! flow-owner table is an index straight over its source slots, which
//! already carry their flow id.
//!
//! The index is deterministic by construction — a fixed multiplicative
//! hash, linear probing, no per-process seed — and nothing observable
//! depends on its internal layout: every ordered view ([`FlowMap::keys`],
//! [`FlowMap::sorted`]) is by flow id, so reports are byte-comparable
//! between runs that inserted in different orders. Memory is
//! `O(entries)` for any `u32` ids, however sparse.

/// Smallest non-empty probe table.
const MIN_TABLE: usize = 8;

/// Home position of `flow` in a table of `len` (a power of two ≥ 8):
/// Fibonacci hashing, taking the top bits of the product.
fn home(flow: u32, len: usize) -> usize {
    let h = flow.wrapping_mul(0x9E37_79B9);
    (h >> (32 - len.trailing_zeros())) as usize
}

/// An open-addressed index from flow id to a position in storage the
/// caller holds. The index stores positions only; every method that has to
/// compare or re-home keys takes `key_of`, which reads the flow id stored
/// at a position (and is only ever called with positions the index holds).
#[derive(Debug, Clone, Default)]
pub(crate) struct FlowIndex {
    /// Probe table of `position + 1` (0 = vacant). Empty until the first
    /// insert, a power of two at most half full after it.
    table: Vec<u32>,
    len: usize,
}

impl FlowIndex {
    /// Number of flows indexed.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Table length that keeps `n` entries at or under half load.
    fn table_len_for(n: usize) -> usize {
        (n * 2).next_power_of_two().max(MIN_TABLE)
    }

    /// Walks `flow`'s probe path: `Ok` with the table position that holds
    /// it, `Err` with the vacant one that ends the path (where it would
    /// go). On a table not yet allocated the `Err` position is a
    /// placeholder; [`FlowIndex::insert`] grows before it uses one.
    fn probe(&self, flow: u32, key_of: impl Fn(usize) -> u32) -> Result<usize, usize> {
        if self.table.is_empty() {
            return Err(0);
        }
        let mask = self.table.len() - 1;
        let mut i = home(flow, self.table.len());
        loop {
            match self.table[i] {
                0 => return Err(i),
                p if key_of(p as usize - 1) == flow => return Ok(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// A table of `len`, every indexed position re-homed under its key.
    fn rehash(&mut self, len: usize, key_of: impl Fn(usize) -> u32) {
        let old = std::mem::replace(&mut self.table, vec![0; len]);
        for p in old.into_iter().filter(|&p| p != 0) {
            if let Err(i) = self.probe(key_of(p as usize - 1), &key_of) {
                self.table[i] = p;
            }
        }
    }

    /// Sizes the table for `total` flows up front, so filling an index
    /// whose population is known never re-allocates.
    pub(crate) fn reserve_total(&mut self, total: usize, key_of: impl Fn(usize) -> u32) {
        if Self::table_len_for(total) > self.table.len() {
            self.rehash(Self::table_len_for(total), key_of);
        }
    }

    /// The position indexed under `flow`.
    pub(crate) fn get(&self, flow: u32, key_of: impl Fn(usize) -> u32) -> Option<usize> {
        let i = self.probe(flow, key_of).ok()?;
        Some(self.table[i] as usize - 1)
    }

    /// Indexes `pos` under `flow`. A flow already present is re-pointed —
    /// the last registration wins — and its previous position returned.
    pub(crate) fn insert(
        &mut self,
        flow: u32,
        pos: usize,
        key_of: impl Fn(usize) -> u32,
    ) -> Option<usize> {
        assert!(
            pos < u32::MAX as usize,
            "flow index is full (2^32 - 1 positions)"
        );
        let entry = pos as u32 + 1;
        let vacant = match self.probe(flow, &key_of) {
            Ok(i) => return Some(std::mem::replace(&mut self.table[i], entry) as usize - 1),
            Err(_) if Self::table_len_for(self.len + 1) > self.table.len() => {
                self.rehash(Self::table_len_for(self.len + 1), &key_of);
                self.probe(flow, &key_of).unwrap_or_else(|vacant| vacant)
            }
            Err(vacant) => vacant,
        };
        self.table[vacant] = entry;
        self.len += 1;
        None
    }

    /// Removes `flow`, returning the position it was indexed at.
    pub(crate) fn remove(&mut self, flow: u32, key_of: impl Fn(usize) -> u32) -> Option<usize> {
        let mut hole = self.probe(flow, &key_of).ok()?;
        let pos = self.table[hole] as usize - 1;
        // Backward-shift deletion: close the gap so every remaining key
        // stays reachable from its home position without tombstones. An
        // entry at `j` may move into the hole unless its home lies
        // cyclically inside `(hole, j]`.
        let mask = self.table.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let p = self.table[j];
            if p == 0 {
                break;
            }
            let home = home(key_of(p as usize - 1), self.table.len());
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.table[hole] = p;
                hole = j;
            }
        }
        self.table[hole] = 0;
        self.len -= 1;
        Some(pos)
    }

    /// Forgets every flow, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.table.fill(0);
        self.len = 0;
    }
}

/// A `u32 → V` map: dense `(flow, value)` storage in insertion order plus
/// a `FlowIndex` from flow id to storage slot.
#[derive(Debug, Clone)]
pub struct FlowMap<V> {
    index: FlowIndex,
    entries: Vec<(u32, V)>,
    /// The hint [`FlowMap::get_or_insert_with`] passes to
    /// [`FlowMap::get_or_insert_hinted`]: the slot it resolved last, for
    /// callers that touch one flow's entry several times in a row and have
    /// nowhere of their own to remember it.
    memo: u32,
}

impl<V> Default for FlowMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> FlowMap<V> {
    /// An empty map (allocates nothing).
    pub fn new() -> Self {
        FlowMap {
            index: FlowIndex::default(),
            entries: Vec::new(),
            memo: 0,
        }
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no flows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sizes storage and index for `total` flows up front, so filling a
    /// map whose population is known never re-allocates (and never holds
    /// the old and the doubled storage at once).
    pub fn reserve_total(&mut self, total: usize) {
        self.entries
            .reserve_exact(total.saturating_sub(self.entries.len()));
        self.index.reserve_total(total, |s| self.entries[s].0);
    }

    /// Storage slot of `flow`, if present.
    fn slot(&self, flow: u32) -> Option<usize> {
        self.index.get(flow, |s| self.entries[s].0)
    }

    /// The value for `flow`.
    pub fn get(&self, flow: u32) -> Option<&V> {
        self.slot(flow).map(|s| &self.entries[s].1)
    }

    /// The value for `flow`, mutably.
    pub fn get_mut(&mut self, flow: u32) -> Option<&mut V> {
        self.slot(flow).map(|s| &mut self.entries[s].1)
    }

    /// Appends an entry for `flow`, which must be absent, and indexes it.
    fn push_new(&mut self, flow: u32, value: V) -> usize {
        let slot = self.entries.len();
        self.entries.push((flow, value));
        self.index.insert(flow, slot, |s| self.entries[s].0);
        slot
    }

    /// The value for `flow`, inserting `make()` on first touch, reached
    /// through a storage slot the caller remembers from its last call.
    ///
    /// `hint` is a guess checked against the flow id stored at that slot,
    /// so it is safe at any value — left over from before a removal, taken
    /// for another flow, never set — and comes back naming `flow`'s slot.
    /// A holder that keeps one hint per flow pays for the probe once.
    pub fn get_or_insert_hinted(
        &mut self,
        flow: u32,
        hint: &mut u32,
        make: impl FnOnce() -> V,
    ) -> &mut V {
        let hit = matches!(self.entries.get(*hint as usize), Some((f, _)) if *f == flow);
        if !hit {
            let slot = match self.slot(flow) {
                Some(slot) => slot,
                None => self.push_new(flow, make()),
            };
            // `push_new` keeps slots below `u32::MAX`.
            *hint = slot as u32;
        }
        &mut self.entries[*hint as usize].1
    }

    /// The value for `flow`, inserting `make()` on first touch.
    pub fn get_or_insert_with(&mut self, flow: u32, make: impl FnOnce() -> V) -> &mut V {
        let mut memo = self.memo;
        self.get_or_insert_hinted(flow, &mut memo, make);
        self.memo = memo;
        &mut self.entries[memo as usize].1
    }

    /// Sets `flow`'s value, returning the one it replaces.
    pub fn insert(&mut self, flow: u32, value: V) -> Option<V> {
        match self.slot(flow) {
            Some(slot) => Some(std::mem::replace(&mut self.entries[slot].1, value)),
            None => {
                self.push_new(flow, value);
                None
            }
        }
    }

    /// Removes `flow`, returning its value.
    pub fn remove(&mut self, flow: u32) -> Option<V> {
        let slot = self.index.remove(flow, |s| self.entries[s].0)?;
        // Dense storage stays dense: the last entry takes the freed slot,
        // so it is re-pointed first (while `entries` still backs every
        // position the index holds).
        let last = self.entries.len() - 1;
        if slot != last {
            self.index
                .insert(self.entries[last].0, slot, |s| self.entries[s].0);
        }
        Some(self.entries.swap_remove(slot).1)
    }

    /// Removes every flow, keeping the allocations.
    pub fn clear(&mut self) {
        self.index.clear();
        self.entries.clear();
    }

    /// Flow ids in ascending order.
    pub fn keys(&self) -> Vec<u32> {
        let mut keys: Vec<u32> = self.entries.iter().map(|(flow, _)| *flow).collect();
        keys.sort_unstable();
        keys
    }

    /// `(flow, value)` pairs in ascending flow order — the order every
    /// serialized or reported view uses.
    pub fn sorted(&self) -> Vec<(u32, &V)> {
        let mut pairs: Vec<(u32, &V)> = self.entries.iter().map(|(f, v)| (*f, v)).collect();
        pairs.sort_unstable_by_key(|(flow, _)| *flow);
        pairs
    }

    /// Consumes the map into `(flow, value)` pairs in ascending flow order.
    pub fn into_sorted(mut self) -> Vec<(u32, V)> {
        self.entries.sort_unstable_by_key(|(flow, _)| *flow);
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m: FlowMap<u64> = FlowMap::new();
        assert!(m.is_empty() && m.get(3).is_none() && m.remove(3).is_none());
        for flow in [7, 0, u32::MAX, 1 << 31, 12] {
            assert_eq!(m.insert(flow, u64::from(flow) * 2), None);
        }
        assert_eq!(m.insert(7, 99), Some(14));
        assert_eq!(m.get(7), Some(&99));
        assert_eq!(m.keys(), vec![0, 7, 12, 1 << 31, u32::MAX]);
        assert_eq!(m.remove(0), Some(0));
        assert_eq!(m.remove(0), None);
        assert_eq!(m.get(u32::MAX), Some(&(u64::from(u32::MAX) * 2)));
        *m.get_or_insert_with(5, || 1) += 1;
        assert_eq!(m.get(5), Some(&2));
        assert_eq!(m.len(), 5);
        m.clear();
        assert!(m.is_empty() && m.get(7).is_none());
    }

    /// Keys sharing one home position form a single probe run; removing
    /// from its front, middle and end must keep the rest reachable.
    #[test]
    fn colliding_keys_survive_removal_anywhere_in_the_run() {
        let len = MIN_TABLE * 4;
        let colliding = colliding_keys(len);
        for victim in 0..colliding.len() {
            let mut m = FlowMap::new();
            m.reserve_total(len / 2);
            for &f in &colliding {
                m.insert(f, f);
            }
            assert_eq!(m.remove(colliding[victim]), Some(colliding[victim]));
            for (i, &f) in colliding.iter().enumerate() {
                assert_eq!(m.get(f).copied(), (i != victim).then_some(f), "key {f}");
            }
        }
    }

    /// The memo is only a guess: whatever `remove` does to the storage
    /// under it (the memoised entry gone, the last entry moved into its
    /// slot, the slot past the end), every lookup lands on its own entry.
    #[test]
    fn memo_survives_remove_and_reinsert() {
        let mut m: FlowMap<u32> = FlowMap::new();
        for flow in 0..4 {
            *m.get_or_insert_with(flow, || flow * 10) += 1;
        }
        let check = |m: &mut FlowMap<u32>, flow: u32, want: u32| {
            assert_eq!(
                *m.get_or_insert_with(flow, || 1000 + flow),
                want,
                "flow {flow}"
            );
            // And again, now through the memo.
            assert_eq!(
                *m.get_or_insert_with(flow, || 2000 + flow),
                want,
                "flow {flow}"
            );
        };
        // Memo on flow 1 (slot 1); removing it moves flow 3 into slot 1.
        check(&mut m, 1, 11);
        assert_eq!(m.remove(1), Some(11));
        check(&mut m, 3, 31);
        check(&mut m, 1, 1001);
        // Memo on the last entry (flow 1, re-inserted at the end); removing
        // it leaves the memo past the end.
        assert_eq!(m.remove(1), Some(1001));
        check(&mut m, 0, 1);
        check(&mut m, 2, 21);
        // Memo on flow 2; remove it and re-insert it under a new slot with
        // another flow taking its old one.
        assert_eq!(m.remove(2), Some(21));
        check(&mut m, 7, 1007);
        check(&mut m, 2, 1002);
        check(&mut m, 3, 31);
        assert_eq!(m.keys(), vec![0, 2, 3, 7]);
        m.clear();
        check(&mut m, 3, 1003);
    }

    #[test]
    fn reserve_total_prevents_regrowth() {
        let mut m: FlowMap<u8> = FlowMap::new();
        m.reserve_total(1000);
        let (table, cap) = (m.index.table.len(), m.entries.capacity());
        for f in 0..1000 {
            m.insert(f * 7919, 0);
        }
        assert_eq!((m.index.table.len(), m.entries.capacity()), (table, cap));
        assert_eq!(m.len(), 1000);
    }

    /// Six keys whose home in a table of `len` is position 3: one probe run.
    fn colliding_keys(len: usize) -> Vec<u32> {
        (0..u32::MAX)
            .filter(|&f| home(f, len) == 3)
            .take(6)
            .collect()
    }

    /// The same run, with the keys held outside the index: position `i` is
    /// `keys[i]`, and a removal leaves the other positions where they were.
    #[test]
    fn flow_index_colliding_keys_survive_removal_anywhere_in_the_run() {
        let len = MIN_TABLE * 4;
        let keys = colliding_keys(len);
        let key_of = |p: usize| keys[p];
        for victim in 0..keys.len() {
            let mut ix = FlowIndex::default();
            ix.reserve_total(len / 2, key_of);
            for (p, &f) in keys.iter().enumerate() {
                assert_eq!(ix.insert(f, p, key_of), None);
            }
            assert_eq!(ix.table.len(), len);
            assert_eq!(ix.remove(keys[victim], key_of), Some(victim));
            assert_eq!(ix.remove(keys[victim], key_of), None);
            for (p, &f) in keys.iter().enumerate() {
                assert_eq!(ix.get(f, key_of), (p != victim).then_some(p), "key {f}");
            }
            assert_eq!(ix.len(), keys.len() - 1);
        }
    }

    /// Lockstep against a `BTreeMap<flow, position>`, the keys in an
    /// outside `Vec` that only grows — the shape of the network's source
    /// table, where a re-registered flow id shadows its earlier slot.
    #[test]
    fn flow_index_agrees_with_btreemap_over_outside_keys() {
        for case in 0..if cfg!(miri) { 4 } else { 64u64 } {
            let mut rng = SmallRng::seed_from_u64(0x1d_0000 + case);
            let mut pool: Vec<u32> = (0..10).collect();
            pool.extend(colliding_keys(MIN_TABLE * 2));
            pool.extend((0..8).map(|_| rng.gen_range_u32(0, u32::MAX)));
            pool.push(u32::MAX);
            let mut keys: Vec<u32> = Vec::new();
            let mut ix = FlowIndex::default();
            let mut model: BTreeMap<u32, usize> = BTreeMap::new();
            for step in 0..rng.gen_range_usize(1, if cfg!(miri) { 80 } else { 500 }) {
                let flow = pool[rng.gen_range_usize(0, pool.len())];
                match rng.gen_range_u32(0, 16) {
                    // Insert, or re-point when `flow` is already indexed.
                    0..=7 => {
                        keys.push(flow);
                        let pos = keys.len() - 1;
                        let was = ix.insert(flow, pos, |p| keys[p]);
                        assert_eq!(was, model.insert(flow, pos), "case {case} step {step}");
                    }
                    8..=12 => {
                        let was = ix.remove(flow, |p| keys[p]);
                        assert_eq!(was, model.remove(&flow), "case {case} step {step}");
                    }
                    13 => {
                        ix.clear();
                        model.clear();
                    }
                    _ => {}
                }
                assert_eq!(ix.len(), model.len(), "case {case} step {step}");
                assert_eq!(ix.get(flow, |p| keys[p]), model.get(&flow).copied());
            }
            for &flow in &pool {
                assert_eq!(
                    ix.get(flow, |p| keys[p]),
                    model.get(&flow).copied(),
                    "case {case} flow {flow}"
                );
            }
        }
    }

    /// Growth re-homes what the table holds, asking the closure for each
    /// position's key: every flow stays reachable at its latest position,
    /// and a shadowed earlier position is not brought back.
    #[test]
    fn flow_index_growth_rehomes_every_position_through_the_key_closure() {
        let n = if cfg!(miri) { 64 } else { 3000 };
        // Position `p` holds flow `p / 2 * 7919`: every flow registered
        // twice, the second time one position on.
        let keys: Vec<u32> = (0..n as u32).map(|p| (p / 2).wrapping_mul(7919)).collect();
        let asked = std::cell::Cell::new(0usize);
        let key_of = |p: usize| {
            asked.set(asked.get() + 1);
            keys[p]
        };
        let mut ix = FlowIndex::default();
        let mut grown = 0;
        for p in 0..n {
            let (before, table) = (asked.get(), ix.table.len());
            assert_eq!(ix.insert(keys[p], p, key_of), (p % 2 == 1).then(|| p - 1));
            if ix.table.len() != table {
                grown += 1;
                // At least one key read per position carried over.
                assert!(asked.get() - before >= ix.len() - 1, "growth at {p}");
                for q in 0..=p {
                    let latest = (q | 1).min(p);
                    assert_eq!(ix.get(keys[q], |p| keys[p]), Some(latest), "flow of {q}");
                }
            }
        }
        assert!(grown >= 3);
        assert_eq!(ix.len(), n / 2);
        assert!(ix.table.len() >= 2 * ix.len());
    }

    /// A hint is only a guess. Whatever it holds — a slot `remove` emptied,
    /// refilled with the last entry, or cut off the end; another flow's
    /// slot; a value never set — the call lands on `flow`'s own entry and
    /// hands back that entry's slot.
    #[test]
    fn hint_of_any_value_lands_on_the_right_entry_and_is_refreshed() {
        let mut m: FlowMap<u32> = FlowMap::new();
        // 0 on an empty map: nothing to check the guess against.
        let mut hint = 0;
        assert_eq!(*m.get_or_insert_hinted(9, &mut hint, || 90), 90);
        assert_eq!(hint, 0);
        let mut hint = u32::MAX;
        assert_eq!(*m.get_or_insert_hinted(9, &mut hint, || 91), 90);
        assert_eq!(hint, 0);
        let mut hints = [0u32; 5];
        for flow in 0..5u32 {
            let h = &mut hints[flow as usize];
            *m.get_or_insert_hinted(flow, h, || flow * 10) += 1;
            assert_eq!(*h, flow + 1, "slot of flow {flow}");
        }
        // Another flow's hint, and `u32::MAX`.
        let mut borrowed = hints[3];
        assert_eq!(*m.get_or_insert_hinted(1, &mut borrowed, || 0), 11);
        assert_eq!(borrowed, hints[1]);
        let mut unset = u32::MAX;
        assert_eq!(*m.get_or_insert_hinted(4, &mut unset, || 0), 41);
        assert_eq!(unset, hints[4]);
        // Flow 1 removed: the last entry (flow 4) moves into its slot.
        // Flow 1's hint now names flow 4's entry; flow 4's is past the end.
        assert_eq!(m.remove(1), Some(11));
        let (mut stale_1, mut stale_4) = (hints[1], hints[4]);
        assert_eq!(*m.get_or_insert_hinted(4, &mut stale_4, || 0), 41);
        assert_eq!(stale_4, hints[1]);
        assert_eq!(*m.get_or_insert_hinted(1, &mut stale_1, || 1001), 1001);
        assert_eq!(stale_1 as usize, m.len() - 1);
        // The entry under the hint gone and nothing moved in: the hinted
        // slot is the end of storage.
        assert_eq!(m.remove(1), Some(1001));
        assert_eq!(*m.get_or_insert_hinted(3, &mut stale_1, || 0), 31);
        assert_eq!(stale_1, hints[3]);
        // The un-hinted path is the same code on the map's own memo.
        assert_eq!(*m.get_or_insert_with(4, || 0), 41);
        assert_eq!(m.memo, hints[1]);
        assert_eq!(m.keys(), vec![0, 2, 3, 4, 9]);
        m.clear();
        assert_eq!(*m.get_or_insert_hinted(2, &mut stale_4, || 5), 5);
        assert_eq!(stale_4, 0);
    }
}
