//! The one priority structure under both per-packet queues: an implicit
//! 4-ary min-heap in a flat `Vec`, ordered by a comparator the caller
//! passes to each operation.
//!
//! The comparator is an argument rather than an `Ord` bound because the
//! two users order by different things — the event queue by a time key
//! with ties resolved in its arena, the eligible set by `f64` rank tuples
//! — and one of them needs outside state to compare at all. Both must
//! pass a strict **total** order; then the pop sequence is the sorted
//! sequence whatever shape the array takes, which is what lets a layout
//! change leave every simulated outcome untouched.
//!
//! An event-queue entry names either an arena slot, whose `(minor, seq)`
//! decide between bit-equal times, or a *timer*: a 32-bit payload that is
//! the whole event. A timer's minor key is computed from the payload, and
//! it has no `seq` — at equal time and minor it orders ahead of every arena
//! entry and against another timer by payload. Two timers equal in time
//! and payload therefore compare equal, the one exception to "total", and
//! a harmless one: they are the same event, and whoever pops them cannot
//! tell which came out first. The heap moves both kinds as the same 16
//! bytes and never looks inside.
//!
//! Four children per node halve the depth of a binary heap, and the four
//! siblings are adjacent in memory — within one cache line or two
//! neighbouring ones for entries of 16 bytes — so a level costs about one
//! miss and there are half as many levels. (Aligning each sibling group
//! to a line of its own was tried and measured no faster.) Removal walks the hole to the bottom along the
//! smallest child (no comparison against the displaced element on the way
//! down) and then sifts the displaced last element up from there: the
//! last element came from the bottom level and nearly always belongs
//! there, so the walk up stops after one comparison.

/// Children per node.
const ARITY: usize = 4;

/// See the [module documentation](self).
#[derive(Debug, Clone)]
pub struct QuadHeap<T> {
    items: Vec<T>,
}

impl<T> Default for QuadHeap<T> {
    fn default() -> Self {
        QuadHeap { items: Vec::new() }
    }
}

impl<T: Copy> QuadHeap<T> {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the heap holds no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The minimum entry.
    #[inline]
    pub fn peek(&self) -> Option<&T> {
        self.items.first()
    }

    /// Every entry, in array order (a valid heap order: pushing the
    /// entries into an empty heap in this order reproduces the array).
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// Drops every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Adds `item`. `less` must be the same strict total order on every
    /// call.
    #[inline]
    pub fn push(&mut self, item: T, less: impl FnMut(&T, &T) -> bool) {
        let hole = self.items.len();
        self.items.push(item);
        self.sift_up(hole, item, less);
    }

    /// Removes and returns the minimum entry.
    #[inline]
    pub fn pop(&mut self, mut less: impl FnMut(&T, &T) -> bool) -> Option<T> {
        // The last entry takes the root's place; it is re-placed below.
        let last = self.items.pop()?;
        let Some(&top) = self.items.first() else {
            return Some(last);
        };
        let len = self.items.len();
        // Walk the hole at the root down to a leaf along the smallest child.
        let mut hole = 0;
        loop {
            let first = ARITY * hole + 1;
            if first >= len {
                break;
            }
            let best = if let Some(s) = self.items.get(first..first + ARITY) {
                // A full group: two independent comparisons, then one
                // between their winners, each turned into an index rather
                // than a jump. Which sibling is smallest is a coin flip no
                // branch predictor learns; as a running-minimum loop this
                // cost sets of 64–4096 members (all in cache, so nothing
                // else to wait for) 20–30 % per pop.
                let a = usize::from(less(&s[1], &s[0]));
                let b = 2 + usize::from(less(&s[3], &s[2]));
                first + if less(&s[b], &s[a]) { b } else { a }
            } else {
                let mut best = first;
                for i in first + 1..len {
                    if less(&self.items[i], &self.items[best]) {
                        best = i;
                    }
                }
                best
            };
            self.items[hole] = self.items[best];
            hole = best;
        }
        self.sift_up(hole, last, less);
        Some(top)
    }

    /// Writes `item` into the hole at index `hole`, first moving the hole
    /// up past every ancestor `item` orders before.
    #[inline]
    fn sift_up(&mut self, mut hole: usize, item: T, mut less: impl FnMut(&T, &T) -> bool) {
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if !less(&item, &self.items[parent]) {
                break;
            }
            self.items[hole] = self.items[parent];
            hole = parent;
        }
        self.items[hole] = item;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            // The low bits of a bare xorshift are weak and the tests take
            // small moduli: use the high half.
            crate::tests::xorshift(&mut self.0) >> 32
        }
    }

    /// Randomized rounds per test; the blocking miri job runs these under
    /// an interpreter some hundred times slower.
    const ROUNDS: usize = if cfg!(miri) { 8 } else { 200 };

    fn is_heap(h: &QuadHeap<u32>) -> bool {
        (1..h.len()).all(|i| h.items[(i - 1) / ARITY] <= h.items[i])
    }

    #[test]
    fn random_push_pop_matches_sort_with_many_equal_keys() {
        // Keys drawn from 0..16, so nearly every comparison the heap makes
        // is between equal keys somewhere along a path; the popped key
        // sequence must still be the sorted one.
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for round in 0..ROUNDS {
            let mut heap = QuadHeap::new();
            let mut model: Vec<u32> = Vec::new();
            let ops = 1 + rng.next() % 400;
            for _ in 0..ops {
                if rng.next() % 3 < 2 || model.is_empty() {
                    let k = (rng.next() % 16) as u32;
                    heap.push(k, |a, b| a < b);
                    model.push(k);
                } else {
                    model.sort_unstable();
                    let want = model.remove(0);
                    assert_eq!(heap.pop(|a, b| a < b), Some(want), "round {round}");
                }
                assert_eq!(heap.len(), model.len());
                assert!(is_heap(&heap), "round {round}");
                assert_eq!(heap.peek().copied(), model.iter().min().copied());
            }
            model.sort_unstable();
            let drained: Vec<u32> = std::iter::from_fn(|| heap.pop(|a, b| a < b)).collect();
            assert_eq!(drained, model, "round {round}");
        }
    }

    #[test]
    fn array_order_replays_to_the_same_array() {
        let mut rng = Rng(11);
        let mut heap = QuadHeap::new();
        for _ in 0..500 {
            heap.push(rng.next() % 1000, |a, b| a < b);
        }
        for _ in 0..100 {
            heap.pop(|a, b| a < b);
        }
        let mut replayed = QuadHeap::new();
        for &k in heap.iter() {
            replayed.push(k, |a, b| a < b);
        }
        assert_eq!(replayed.items, heap.items);
    }

    #[test]
    fn empty_heap_pops_none() {
        let mut heap: QuadHeap<u32> = QuadHeap::new();
        assert_eq!(heap.pop(|a, b| a < b), None);
        assert_eq!(heap.peek(), None);
        heap.push(3, |a, b| a < b);
        heap.clear();
        assert!(heap.is_empty());
    }
}
