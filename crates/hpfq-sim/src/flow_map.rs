//! [`FlowMap`]: the per-flow table behind the packet path.
//!
//! Every packet looks its flow up several times (owner at each
//! transmission, statistics at arrival, admission and service). A
//! `BTreeMap<u32, _>` makes each of those a pointer-chasing tree walk that
//! misses the caches once the flow count is large; this is one probe into
//! a `u32` table plus one indexed load from dense storage.
//!
//! The map is deterministic by construction — a fixed multiplicative hash,
//! linear probing, no per-process seed — and nothing observable depends on
//! its internal layout: every ordered view ([`FlowMap::keys`],
//! [`FlowMap::sorted`]) is by flow id, so serialized state is
//! byte-comparable between runs that inserted in different orders (a
//! sharded run and the sequential one, for instance). Memory is
//! `O(entries)` for any `u32` ids, however sparse.

/// Smallest non-empty probe table.
const MIN_TABLE: usize = 8;

/// A `u32 → V` map: dense `(flow, value)` storage in insertion order plus
/// an open-addressed index from flow id to storage slot.
#[derive(Debug, Clone)]
pub struct FlowMap<V> {
    /// Probe table of `slot + 1` into `entries` (0 = vacant). Empty until
    /// the first insert, a power of two at most half full after it.
    table: Vec<u32>,
    entries: Vec<(u32, V)>,
    /// Storage slot [`FlowMap::get_or_insert_with`] resolved last: the
    /// packet path touches one flow's entry two or three times in a row
    /// (offered, then accepted or dropped), and only the first needs the
    /// probe. It is a guess checked against `entries[memo].0` on use, so
    /// nothing has to keep it current across removals and re-inserts.
    memo: usize,
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
            table: Vec::new(),
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
        if Self::table_len_for(total) > self.table.len() {
            self.rebuild(Self::table_len_for(total));
        }
    }

    /// Table length that keeps `n` entries at or under half load.
    fn table_len_for(n: usize) -> usize {
        (n * 2).next_power_of_two().max(MIN_TABLE)
    }

    /// Home position of `flow` in a table of `len` (a power of two ≥ 8):
    /// Fibonacci hashing, taking the top bits of the product.
    fn home(flow: u32, len: usize) -> usize {
        let h = flow.wrapping_mul(0x9E37_79B9);
        (h >> (32 - len.trailing_zeros())) as usize
    }

    /// Table position holding `flow`, if present.
    fn position(&self, flow: u32) -> Option<usize> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut i = Self::home(flow, self.table.len());
        loop {
            match self.table[i] {
                0 => return None,
                s if self.entries[s as usize - 1].0 == flow => return Some(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Storage slot of `flow`, if present.
    fn slot(&self, flow: u32) -> Option<usize> {
        self.position(flow).map(|i| self.table[i] as usize - 1)
    }

    /// Points the first vacant position on `flow`'s probe path at `slot`.
    fn index(&mut self, flow: u32, slot: usize) {
        let mask = self.table.len() - 1;
        let mut i = Self::home(flow, self.table.len());
        while self.table[i] != 0 {
            i = (i + 1) & mask;
        }
        self.table[i] = slot as u32 + 1;
    }

    fn rebuild(&mut self, len: usize) {
        self.table.clear();
        self.table.resize(len, 0);
        for slot in 0..self.entries.len() {
            self.index(self.entries[slot].0, slot);
        }
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
        assert!(
            self.entries.len() < u32::MAX as usize,
            "flow map is full (2^32 - 1 entries)"
        );
        let slot = self.entries.len();
        if Self::table_len_for(slot + 1) > self.table.len() {
            self.rebuild(Self::table_len_for(slot + 1));
        }
        self.entries.push((flow, value));
        self.index(flow, slot);
        slot
    }

    /// The value for `flow`, inserting `make()` on first touch.
    pub fn get_or_insert_with(&mut self, flow: u32, make: impl FnOnce() -> V) -> &mut V {
        let memoised = matches!(self.entries.get(self.memo), Some((f, _)) if *f == flow);
        if !memoised {
            self.memo = match self.slot(flow) {
                Some(slot) => slot,
                None => self.push_new(flow, make()),
            };
        }
        &mut self.entries[self.memo].1
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
        let mut hole = self.position(flow)?;
        let slot = self.table[hole] as usize - 1;
        // Backward-shift deletion: close the gap so every remaining key
        // stays reachable from its home position without tombstones. An
        // entry at `j` may move into the hole unless its home lies
        // cyclically inside `(hole, j]`.
        let mask = self.table.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let s = self.table[j];
            if s == 0 {
                break;
            }
            let home = Self::home(self.entries[s as usize - 1].0, self.table.len());
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.table[hole] = s;
                hole = j;
            }
        }
        self.table[hole] = 0;
        // Dense storage stays dense: the last entry takes the freed slot,
        // so its index entry is re-pointed first (while `entries` still
        // backs every table value).
        let last = self.entries.len() - 1;
        if slot != last {
            if let Some(i) = self.position(self.entries[last].0) {
                self.table[i] = slot as u32 + 1;
            }
        }
        Some(self.entries.swap_remove(slot).1)
    }

    /// Removes every flow, keeping the allocations.
    pub fn clear(&mut self) {
        self.table.fill(0);
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
        let colliding: Vec<u32> = (0..u32::MAX)
            .filter(|&f| FlowMap::<()>::home(f, len) == 3)
            .take(6)
            .collect();
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
        let (table, cap) = (m.table.len(), m.entries.capacity());
        for f in 0..1000 {
            m.insert(f * 7919, 0);
        }
        assert_eq!((m.table.len(), m.entries.capacity()), (table, cap));
        assert_eq!(m.len(), 1000);
    }
}
